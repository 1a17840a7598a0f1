package avail

import (
	"fmt"

	"tightsched/internal/markov"
	"tightsched/internal/rng"
)

// Defaults for the diurnal model (NewDiurnal).
const (
	// DefaultDiurnalPeriod is one simulated day in slots.
	DefaultDiurnalPeriod = 2_000
	// DefaultDayFraction is the portion of each period spent in the
	// volatile day phase.
	DefaultDayFraction = 0.5
	// DefaultDayChurn / DefaultNightChurn scale the state-leaving
	// probabilities during day and night.
	DefaultDayChurn   = 2.5
	DefaultNightChurn = 0.4
)

// DiurnalModel is time-of-day-correlated ground truth: desktop-grid
// hosts churn when their owners are at the keyboard and settle at night,
// and they all share the clock — availability is correlated ACROSS
// processors, which the per-processor-independent Markov and semi-Markov
// models cannot express. Each processor alternates between two chains
// derived from its nominal matrix: a "day" chain whose state-leaving
// probabilities are scaled up by DayChurn and a "night" chain scaled
// down by NightChurn, switching on a shared period. The believed
// matrices are fitted from calibration traces of the true time-varying
// process via markov.Fit, exactly the way SemiMarkovModel's are — one
// time-homogeneous "flawed" chain per processor.
//
// Use by pointer: the fitted believed matrices are memoized internally.
type DiurnalModel struct {
	// Label names the model in experiment output ("diurnal" if empty).
	Label string
	// Period is one simulated day in slots (DefaultDiurnalPeriod when 0).
	Period int64
	// DayFraction is the day phase's share of the period, in (0, 1)
	// (DefaultDayFraction when 0).
	DayFraction float64
	// DayChurn and NightChurn scale each matrix's state-leaving
	// probabilities during the respective phase (defaults when 0).
	// Values > 1 increase churn; the scaled mass is capped below 1.
	DayChurn, NightChurn float64
	// CalibrationSlots is the per-processor calibration-trace length for
	// fitting believed matrices (DefaultCalibrationSlots when 0).
	CalibrationSlots int
	// Smoothing is markov.Fit's additive smoothing (DefaultSmoothing
	// when 0).
	Smoothing float64
	// CalibrationSeed decorrelates calibration traces from trial seeds.
	CalibrationSeed uint64

	fit fitMemo
}

// NewDiurnal returns the standard diurnal model.
func NewDiurnal() *DiurnalModel { return &DiurnalModel{} }

// Name implements Model.
func (d *DiurnalModel) Name() string {
	if d.Label != "" {
		return d.Label
	}
	return "diurnal"
}

func (d *DiurnalModel) params() (period int64, daySlots int64, dayChurn, nightChurn float64) {
	period = d.Period
	if period <= 0 {
		period = DefaultDiurnalPeriod
	}
	frac := d.DayFraction
	if frac <= 0 {
		frac = DefaultDayFraction
	}
	if frac >= 1 {
		panic(fmt.Sprintf("avail: diurnal day fraction %v, want (0, 1)", frac))
	}
	daySlots = int64(frac * float64(period))
	if daySlots < 1 {
		daySlots = 1
	}
	dayChurn = d.DayChurn
	if dayChurn == 0 {
		dayChurn = DefaultDayChurn
	}
	nightChurn = d.NightChurn
	if nightChurn == 0 {
		nightChurn = DefaultNightChurn
	}
	if dayChurn < 0 || nightChurn < 0 {
		panic(fmt.Sprintf("avail: diurnal churn (%v, %v), want non-negative", dayChurn, nightChurn))
	}
	return period, daySlots, dayChurn, nightChurn
}

// scaleChurn scales every state-leaving probability of m by churn,
// renormalizing the self-loop and capping total leaving mass at 0.999 so
// the result stays a valid stochastic matrix.
func scaleChurn(m markov.Matrix, churn float64) markov.Matrix {
	const maxOut = 0.999
	var out markov.Matrix
	for i := 0; i < markov.NumStates; i++ {
		leave := 1 - m[i][i]
		scaled := leave * churn
		if scaled > maxOut {
			scaled = maxOut
		}
		factor := 0.0
		if leave > 0 {
			factor = scaled / leave
		}
		rowSum := 0.0
		for j := 0; j < markov.NumStates; j++ {
			if j != i {
				out[i][j] = m[i][j] * factor
				rowSum += out[i][j]
			}
		}
		out[i][i] = 1 - rowSum
	}
	if err := out.Validate(); err != nil {
		panic(err) // unreachable: rows renormalize by construction
	}
	return out
}

// diurnalProvider steps each processor with the phase's chain. The
// phase clock is shared: every processor sees day and night together,
// which is what correlates the realization across the platform.
type diurnalProvider struct {
	day, night []markov.Matrix
	streams    []*rng.Stream
	states     []markov.State
	slot       int64
	period     int64
	daySlots   int64
}

// States implements StateProvider for consecutive slots starting at 0.
// The transition out of slot s uses slot s's phase.
func (dp *diurnalProvider) States(slot int64, dst []markov.State) {
	for ; dp.slot < slot; dp.slot++ {
		ms := dp.night
		if dp.slot%dp.period < dp.daySlots {
			ms = dp.day
		}
		for q := range dp.states {
			dp.states[q] = ms[q].Step(dp.states[q], dp.streams[q].Float64())
		}
	}
	copy(dst, dp.states)
}

// Provider implements Model. The initial states are drawn from each
// nominal chain's stationary distribution unless allUp.
func (d *DiurnalModel) Provider(base []markov.Matrix, seed uint64, allUp bool) StateProvider {
	period, daySlots, dayChurn, nightChurn := d.params()
	dp := &diurnalProvider{
		day:      make([]markov.Matrix, len(base)),
		night:    make([]markov.Matrix, len(base)),
		streams:  make([]*rng.Stream, len(base)),
		states:   make([]markov.State, len(base)),
		period:   period,
		daySlots: daySlots,
	}
	init := rng.NewKeyed(seed, 0xd117)
	for q, m := range base {
		dp.day[q] = scaleChurn(m, dayChurn)
		dp.night[q] = scaleChurn(m, nightChurn)
		dp.streams[q] = rng.NewKeyed(seed, 0xd1a1, uint64(q))
		if allUp {
			dp.states[q] = markov.Up
		} else {
			dp.states[q] = drawStationary(m, init.Float64())
		}
	}
	return dp
}

// drawStationary samples a state from m's stationary distribution.
func drawStationary(m markov.Matrix, u float64) markov.State {
	pi := m.Stationary()
	acc := 0.0
	for s := 0; s < markov.NumStates; s++ {
		acc += pi[s]
		if u < acc {
			return markov.State(s)
		}
	}
	return markov.State(markov.NumStates - 1)
}

// EstimatorMatrices implements Model: per processor, a calibration trace
// of the true diurnal process (several full periods long) is recorded
// and one time-homogeneous Markov matrix fitted from its one-step
// transition counts — the best chain a Section V estimator that cannot
// see the clock could believe. Deterministic (keyed by CalibrationSeed)
// and memoized per platform.
func (d *DiurnalModel) EstimatorMatrices(base []markov.Matrix) []markov.Matrix {
	e := d.fit.entry(base)
	e.once.Do(func() { e.ms = d.calibrate(base) })
	return e.ms
}

func (d *DiurnalModel) calibrate(base []markov.Matrix) []markov.Matrix {
	period, daySlots, dayChurn, nightChurn := d.params()
	slots := d.CalibrationSlots
	if slots == 0 {
		slots = DefaultCalibrationSlots
	}
	// At least four full periods, so the fit sees both phases even when
	// the period is long relative to the default trace.
	if min := int(4 * period); slots < min {
		slots = min
	}
	smoothing := d.Smoothing
	if smoothing == 0 {
		smoothing = DefaultSmoothing
	}
	ms := make([]markov.Matrix, len(base))
	for q, m := range base {
		day, night := scaleChurn(m, dayChurn), scaleChurn(m, nightChurn)
		stream := rng.NewKeyed(d.CalibrationSeed, 0xca1d, uint64(q))
		state := markov.Up
		tr := make([]markov.State, slots)
		for i := range tr {
			phase := night
			if int64(i)%period < daySlots {
				phase = day
			}
			state = phase.Step(state, stream.Float64())
			tr[i] = state
		}
		fitted, err := markov.Fit(tr, smoothing)
		if err != nil {
			panic(err) // unreachable: the trace is non-empty and valid
		}
		ms[q] = fitted
	}
	return ms
}

func init() {
	MustRegister("diurnal", func() Model { return NewDiurnal() })
}

package avail

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"tightsched/internal/markov"
	"tightsched/internal/rng"
)

// Defaults for the calibration runs behind SemiMarkovModel's fitted
// ("flawed") believed matrices.
const (
	// DefaultCalibrationSlots is the per-processor calibration-trace
	// length used to fit believed matrices when the model does not set
	// CalibrationSlots.
	DefaultCalibrationSlots = 20_000
	// DefaultSmoothing is the additive smoothing used by markov.Fit when
	// the model does not set Smoothing.
	DefaultSmoothing = 0.5
)

// Dist selects a holding-time distribution family for a derived
// semi-Markov process.
type Dist int

const (
	// DistGeometric holds geometrically — the memoryless case; a derived
	// process with geometric holding times in every state is exactly the
	// nominal Markov chain (useful for degeneracy tests).
	DistGeometric Dist = iota
	// DistWeibull holds for Weibull-distributed durations. Shape < 1
	// gives the heavy-tailed availability intervals observed in desktop
	// grids.
	DistWeibull
	// DistLogNormal holds for Log-Normal durations.
	DistLogNormal
)

// HoldingSpec describes the holding-time distribution of one state in a
// derived semi-Markov process. The distribution's scale is not specified
// here: it is chosen per processor so the mean holding time matches the
// nominal Markov chain's (1/(1−P(x,x))), keeping the derived process
// comparable to the chain it violates.
type HoldingSpec struct {
	// Dist is the distribution family.
	Dist Dist
	// Shape is the Weibull shape (DistWeibull) or the log-normal sigma
	// (DistLogNormal); ignored for DistGeometric.
	Shape float64
}

// holdFor returns the holding-time distribution with the spec's shape and
// the given mean duration in slots.
func (h HoldingSpec) holdFor(mean float64) markov.HoldingTime {
	if mean < 1 {
		mean = 1
	}
	switch h.Dist {
	case DistGeometric:
		return markov.Geometric{Stay: 1 - 1/mean}
	case DistWeibull:
		if h.Shape <= 0 {
			panic(fmt.Sprintf("avail: weibull shape %v, want positive", h.Shape))
		}
		return markov.Weibull{Shape: h.Shape, Scale: mean / math.Gamma(1+1/h.Shape)}
	case DistLogNormal:
		if h.Shape < 0 {
			panic(fmt.Sprintf("avail: lognormal sigma %v, want non-negative", h.Shape))
		}
		return markov.LogNormal{Mu: math.Log(mean) - h.Shape*h.Shape/2, Sigma: h.Shape}
	default:
		panic(fmt.Sprintf("avail: unknown holding distribution %d", int(h.Dist)))
	}
}

// SemiMarkovModel is non-Markovian ground truth: each processor follows a
// 3-state semi-Markov process (Section VII.B's stated future work), while
// the believed matrices are fitted from calibration traces with
// markov.Fit — the "flawed Markov model" the paper proposes to build.
//
// Processes come from one of two sources:
//
//   - Procs, when non-nil, gives one explicit process per processor (the
//     model is then bound to platforms of exactly that size);
//   - otherwise each processor's process is derived from the platform's
//     nominal matrix: the jump chain is the matrix's embedded chain and
//     each state holds per Hold's distribution, scaled to the matrix's
//     mean holding time. Derived models are platform-generic, which is
//     what lets one model value sweep across random scenarios.
//
// Use by pointer: the fitted believed matrices are memoized internally.
type SemiMarkovModel struct {
	// Label names the model in experiment output ("semimarkov" if empty).
	Label string
	// Procs are explicit per-processor processes (optional; see above).
	Procs []*markov.SemiMarkov
	// Hold derives per-state holding times when Procs is nil.
	Hold [markov.NumStates]HoldingSpec
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

// fitMemo memoizes fitted believed matrices per platform, keyed by the
// exact float bits of the platform's nominal matrices: two platforms
// share an entry only when every matrix entry is bit-identical. Safe for
// concurrent use.
type fitMemo struct {
	mu      sync.Mutex
	key     []byte // scratch for composing lookup keys, under mu
	entries map[string]*fitEntry
}

// fitEntry memoizes one platform's fitted matrices. The per-entry Once
// lets distinct platforms calibrate concurrently while the memo's mutex
// only guards the map itself.
type fitEntry struct {
	once sync.Once
	ms   []markov.Matrix
}

// entry returns the memo entry of the platform whose nominal matrices
// are base, creating it on first use. A hit allocates nothing: the key
// is composed in a reused buffer and looked up without conversion.
func (fm *fitMemo) entry(base []markov.Matrix) *fitEntry {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	buf := fm.key[:0]
	for _, m := range base {
		for i := range m {
			for _, x := range m[i] {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
			}
		}
	}
	fm.key = buf
	e := fm.entries[string(buf)]
	if e == nil {
		if fm.entries == nil {
			fm.entries = make(map[string]*fitEntry)
		}
		e = &fitEntry{}
		fm.entries[string(buf)] = e
	}
	return e
}

// NewSemiMarkov returns the standard heavy-tailed model: Weibull UP
// holding times with the given shape (shape < 1 means long UP periods
// tend to keep lasting, the regime that most violates memorylessness),
// near-exponential RECLAIMED periods, and Log-Normal DOWN periods.
func NewSemiMarkov(upShape float64) *SemiMarkovModel {
	return &SemiMarkovModel{
		Label: "semimarkov",
		Hold: [markov.NumStates]HoldingSpec{
			markov.Up:        {Dist: DistWeibull, Shape: upShape},
			markov.Reclaimed: {Dist: DistWeibull, Shape: 1},
			markov.Down:      {Dist: DistLogNormal, Shape: 0.5},
		},
	}
}

// Name implements Model.
func (sm *SemiMarkovModel) Name() string {
	if sm.Label != "" {
		return sm.Label
	}
	return "semimarkov"
}

// procsFor resolves the per-processor processes for a platform with the
// given nominal matrices.
func (sm *SemiMarkovModel) procsFor(base []markov.Matrix) []*markov.SemiMarkov {
	if sm.Procs != nil {
		if base != nil && len(base) != len(sm.Procs) {
			panic(fmt.Sprintf("avail: model %s has %d explicit processes, platform has %d processors",
				sm.Name(), len(sm.Procs), len(base)))
		}
		return sm.Procs
	}
	procs := make([]*markov.SemiMarkov, len(base))
	for q, m := range base {
		procs[q] = DeriveSemiMarkov(m, sm.Hold)
	}
	return procs
}

// DeriveSemiMarkov builds the semi-Markov process whose jump chain is the
// matrix's embedded chain and whose state-holding times follow the given
// specs, scaled so each state's mean holding time matches the chain's
// 1/(1−P(x,x)). With geometric specs in every state the derived process
// is distributionally the chain itself. The matrix must have no absorbing
// state (every chain of the paper's scenarios qualifies).
func DeriveSemiMarkov(m markov.Matrix, hold [markov.NumStates]HoldingSpec) *markov.SemiMarkov {
	sm := &markov.SemiMarkov{}
	for i := 0; i < markov.NumStates; i++ {
		out := 1 - m[i][i]
		if out <= 0 {
			panic(fmt.Sprintf("avail: cannot derive a semi-Markov process from absorbing state %v of %v",
				markov.State(i), m))
		}
		for j := 0; j < markov.NumStates; j++ {
			if j != i {
				sm.Jump[i][j] = m[i][j] / out
			}
		}
		sm.Hold[i] = hold[i].holdFor(1 / out)
	}
	if err := sm.Validate(); err != nil {
		panic(err)
	}
	return sm
}

// Provider implements Model. Every trial starts all processors UP: a
// semi-Markov process has no cheap stationary draw, and the paper's
// experiments are insensitive to the initial transient. allUp is
// therefore accepted but has no additional effect.
func (sm *SemiMarkovModel) Provider(base []markov.Matrix, seed uint64, allUp bool) StateProvider {
	procs := sm.procsFor(base)
	samplers := make([]*markov.SemiMarkovSampler, len(procs))
	for q, p := range procs {
		samplers[q] = markov.NewSemiMarkovSampler(p, markov.Up, rng.NewKeyed(seed, 0x5e31, uint64(q)))
	}
	return &semiProvider{samplers: samplers}
}

// semiProvider steps per-processor semi-Markov samplers in lockstep.
type semiProvider struct {
	samplers []*markov.SemiMarkovSampler
}

// States implements StateProvider.
func (sp *semiProvider) States(slot int64, dst []markov.State) {
	for q, s := range sp.samplers {
		if slot == 0 {
			dst[q] = s.State()
		} else {
			dst[q] = s.Step()
		}
	}
}

// EstimatorMatrices implements Model: per processor, a calibration trace
// of the true process is recorded and a Markov matrix fitted from its
// one-step transition counts. The fit is deterministic (keyed by
// CalibrationSeed, not trial seeds) and memoized per platform, so a sweep
// pays for it once per scenario rather than once per simulation.
func (sm *SemiMarkovModel) EstimatorMatrices(base []markov.Matrix) []markov.Matrix {
	var e *fitEntry
	if sm.Procs != nil {
		// Surface an explicit-process size mismatch on every call, not
		// just the calibrating one. Explicit processes ignore base, so
		// every platform shares the one fit (under the empty key).
		if base != nil && len(base) != len(sm.Procs) {
			panic(fmt.Sprintf("avail: model %s has %d explicit processes, platform has %d processors",
				sm.Name(), len(sm.Procs), len(base)))
		}
		e = sm.fit.entry(nil)
	} else {
		e = sm.fit.entry(base)
	}
	// Deriving the processes is itself linear work, so it stays inside
	// the once: a memoized hit is allocation-free.
	e.once.Do(func() { e.ms = sm.calibrate(sm.procsFor(base)) })
	return e.ms
}

// calibrate records one calibration trace per process and fits a Markov
// matrix from each.
func (sm *SemiMarkovModel) calibrate(procs []*markov.SemiMarkov) []markov.Matrix {
	slots := sm.CalibrationSlots
	if slots == 0 {
		slots = DefaultCalibrationSlots
	}
	smoothing := sm.Smoothing
	if smoothing == 0 {
		smoothing = DefaultSmoothing
	}
	ms := make([]markov.Matrix, len(procs))
	for q, p := range procs {
		sampler := markov.NewSemiMarkovSampler(p, markov.Up, rng.NewKeyed(sm.CalibrationSeed, 0xca11, uint64(q)))
		tr := make([]markov.State, slots)
		for i := range tr {
			tr[i] = sampler.Step()
		}
		m, err := markov.Fit(tr, smoothing)
		if err != nil {
			panic(err) // unreachable: the trace is non-empty and valid
		}
		ms[q] = m
	}
	return ms
}

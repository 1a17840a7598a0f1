package avail

import (
	"testing"

	"tightsched/internal/markov"
)

func TestDiurnalRegistered(t *testing.T) {
	m, err := Builtin("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "diurnal" {
		t.Errorf("Name() = %q, want diurnal", m.Name())
	}
	if _, ok := m.(*DiurnalModel); !ok {
		t.Errorf("registry resolved %T, want *DiurnalModel", m)
	}
}

func TestDiurnalProviderSeeded(t *testing.T) {
	ms := paperMatrices(3, 9)
	model := NewDiurnal()
	a := collect(model.Provider(ms, 4, false), 3, 300)
	b := collect(model.Provider(ms, 4, false), 3, 300)
	for tt := range a {
		for q := range a[tt] {
			if a[tt][q] != b[tt][q] {
				t.Fatalf("same seed diverged at slot %d proc %d", tt, q)
			}
		}
	}
	diff := false
	c := collect(model.Provider(ms, 5, false), 3, 300)
	for tt := range a {
		for q := range a[tt] {
			if a[tt][q] != c[tt][q] {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical realizations")
	}

	states := make([]markov.State, 3)
	model.Provider(ms, 4, true).States(0, states)
	for q, s := range states {
		if s != markov.Up {
			t.Fatalf("allUp start: proc %d begins %v", q, s)
		}
	}
}

// TestDiurnalPhasesDiffer: the defining property of the model — churn
// (state changes per slot) is visibly higher during the shared day
// phase than at night. Measured over many periods so the contrast is
// far from noise.
func TestDiurnalPhasesDiffer(t *testing.T) {
	const procs, periods = 4, 30
	model := &DiurnalModel{Period: 200, DayFraction: 0.5}
	ms := paperMatrices(procs, 3)
	states := collect(model.Provider(ms, 9, false), procs, 200*periods)
	var dayChanges, nightChanges int
	for tt := 1; tt < len(states); tt++ {
		day := int64(tt-1)%200 < 100 // the transition out of slot tt-1 uses its phase
		for q := range states[tt] {
			if states[tt][q] != states[tt-1][q] {
				if day {
					dayChanges++
				} else {
					nightChanges++
				}
			}
		}
	}
	if nightChanges == 0 {
		t.Fatal("no churn at night at all; matrices degenerate")
	}
	if dayChanges <= nightChanges {
		t.Fatalf("day churn %d not above night churn %d", dayChanges, nightChanges)
	}
}

func TestDiurnalEstimatorMatricesMemoized(t *testing.T) {
	model := NewDiurnal()
	model.CalibrationSlots = 2_000
	checkFitMemoExact(t, model.EstimatorMatrices)
	for q, m := range model.EstimatorMatrices(paperMatrices(2, 5)) {
		if err := m.Validate(); err != nil {
			t.Fatalf("fitted matrix %d invalid: %v", q, err)
		}
	}
}

// TestScaleChurn: scaling preserves stochasticity and moves the
// state-leaving mass in the requested direction, capped below 1.
func TestScaleChurn(t *testing.T) {
	m := markov.PerState(0.95, 0.9, 0.92)
	up := scaleChurn(m, 2.5)
	down := scaleChurn(m, 0.4)
	for _, s := range []markov.Matrix{up, down} {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < markov.NumStates; i++ {
		leave := 1 - m[i][i]
		if got := 1 - up[i][i]; got <= leave {
			t.Errorf("state %d: day scaling left leaving mass %v <= nominal %v", i, got, leave)
		}
		if got := 1 - down[i][i]; got >= leave {
			t.Errorf("state %d: night scaling left leaving mass %v >= nominal %v", i, got, leave)
		}
	}
	// Extreme churn saturates rather than breaking the matrix.
	extreme := scaleChurn(m, 1e6)
	if err := extreme.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < markov.NumStates; i++ {
		if extreme[i][i] < 0.0009 {
			t.Errorf("state %d self-loop %v fell below the cap's complement", i, extreme[i][i])
		}
	}
}

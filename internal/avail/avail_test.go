package avail

import (
	"math"
	"sync"
	"testing"

	"tightsched/internal/markov"
	"tightsched/internal/rng"
)

func paperMatrices(p int, seed uint64) []markov.Matrix {
	stream := rng.New(seed)
	ms := make([]markov.Matrix, p)
	for i := range ms {
		ms[i] = markov.PerState(stream.Uniform(0.90, 0.99),
			stream.Uniform(0.90, 0.99), stream.Uniform(0.90, 0.99))
	}
	return ms
}

// lowestBitTwin returns a copy of ms whose one entry differs from ms's
// in the lowest mantissa bit: a platform no fit memo may confuse with
// ms's.
func lowestBitTwin(ms []markov.Matrix) []markov.Matrix {
	twin := append([]markov.Matrix(nil), ms...)
	x := &twin[len(twin)-1][markov.Up][markov.Reclaimed]
	*x = math.Float64frombits(math.Float64bits(*x) ^ 1)
	return twin
}

// checkFitMemoExact requires fit to memoize per platform on the exact
// float bits: identical platforms share one fit, a hit allocates
// nothing, and a platform one mantissa bit away gets its own fit.
func checkFitMemoExact(t *testing.T, fit func([]markov.Matrix) []markov.Matrix) {
	t.Helper()
	ms := paperMatrices(2, 5)
	a := fit(ms)
	if b := fit(append([]markov.Matrix(nil), ms...)); &a[0] != &b[0] {
		t.Fatal("fit not memoized for identical platforms")
	}
	if allocs := testing.AllocsPerRun(100, func() { fit(ms) }); allocs != 0 {
		t.Fatalf("memoized fit allocates %v times per call", allocs)
	}
	other := fit(paperMatrices(2, 6))
	if a[0] == other[0] {
		t.Fatal("distinct platforms share a fit")
	}
	twin := lowestBitTwin(ms)
	c := fit(twin)
	if &c[0] == &a[0] {
		t.Fatal("platforms one mantissa bit apart share a fit")
	}
	if d := fit(twin); &d[0] != &c[0] {
		t.Fatal("fit not memoized for the one-bit twin")
	}
	if e := fit(ms); &e[0] != &a[0] {
		t.Fatal("the one-bit twin displaced the original's fit")
	}
}

// TestFitMemoConcurrent: campaign workers share one model, so the fit
// memo's key buffer and map are reached from several goroutines at once;
// every caller must get the one fit of its platform.
func TestFitMemoConcurrent(t *testing.T) {
	for _, model := range []Model{NewDiurnal(), NewSemiMarkov(0.6)} {
		platforms := [][]markov.Matrix{paperMatrices(3, 5), lowestBitTwin(paperMatrices(3, 5)), paperMatrices(3, 6)}
		got := make([][][]markov.Matrix, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					got[g] = append(got[g], model.EstimatorMatrices(platforms[(g+i)%len(platforms)]))
				}
			}()
		}
		wg.Wait()
		for g := range got {
			for i, ms := range got[g] {
				want := model.EstimatorMatrices(platforms[(g+i)%len(platforms)])
				if &ms[0] != &want[0] {
					t.Fatalf("%s: goroutine %d call %d got another platform's fit", model.Name(), g, i)
				}
			}
		}
	}
}

func collect(p StateProvider, procs, slots int) [][]markov.State {
	out := make([][]markov.State, slots)
	for t := range out {
		out[t] = make([]markov.State, procs)
		p.States(int64(t), out[t])
	}
	return out
}

func TestMarkovModelReproducible(t *testing.T) {
	ms := paperMatrices(4, 3)
	m := MarkovModel{}
	a := collect(m.Provider(ms, 9, false), 4, 200)
	b := collect(m.Provider(ms, 9, false), 4, 200)
	for tt := range a {
		for q := range a[tt] {
			if a[tt][q] != b[tt][q] {
				t.Fatalf("slot %d proc %d: %v != %v", tt, q, a[tt][q], b[tt][q])
			}
		}
	}
	c := collect(m.Provider(ms, 10, false), 4, 200)
	same := true
	for tt := range a {
		for q := range a[tt] {
			if a[tt][q] != c[tt][q] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical realizations")
	}
}

func TestMarkovModelAllUp(t *testing.T) {
	ms := paperMatrices(6, 1)
	states := make([]markov.State, 6)
	MarkovModel{}.Provider(ms, 5, true).States(0, states)
	for q, s := range states {
		if s != markov.Up {
			t.Fatalf("proc %d starts %v with allUp", q, s)
		}
	}
}

func TestMarkovModelBelievesExactly(t *testing.T) {
	ms := paperMatrices(3, 2)
	got := MarkovModel{}.EstimatorMatrices(ms)
	for q := range ms {
		if got[q] != ms[q] {
			t.Fatalf("proc %d: believed %v != nominal %v", q, got[q], ms[q])
		}
	}
}

func TestDeriveSemiMarkovJumpChain(t *testing.T) {
	m := markov.PerState(0.95, 0.92, 0.90)
	sm := DeriveSemiMarkov(m, [markov.NumStates]HoldingSpec{
		{Dist: DistWeibull, Shape: 0.7},
		{Dist: DistWeibull, Shape: 1},
		{Dist: DistLogNormal, Shape: 0.5},
	})
	for i := 0; i < markov.NumStates; i++ {
		out := 1 - m[i][i]
		for j := 0; j < markov.NumStates; j++ {
			want := 0.0
			if j != i {
				want = m[i][j] / out
			}
			if math.Abs(sm.Jump[i][j]-want) > 1e-12 {
				t.Fatalf("jump[%d][%d] = %v, want %v", i, j, sm.Jump[i][j], want)
			}
		}
	}
}

func TestDeriveSemiMarkovAbsorbingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for absorbing state")
		}
	}()
	DeriveSemiMarkov(markov.AlwaysUp(), [markov.NumStates]HoldingSpec{})
}

// TestGeometricDerivationMatchesChain checks the degeneracy property: a
// semi-Markov process derived with geometric holding times everywhere has
// the chain's one-step statistics, so the fitted believed matrix must be
// close to the nominal one.
func TestGeometricDerivationMatchesChain(t *testing.T) {
	ms := paperMatrices(1, 7)
	model := &SemiMarkovModel{
		Label: "geometric",
		Hold: [markov.NumStates]HoldingSpec{
			{Dist: DistGeometric}, {Dist: DistGeometric}, {Dist: DistGeometric},
		},
		CalibrationSlots: 200_000,
		Smoothing:        0.5,
	}
	fit := model.EstimatorMatrices(ms)
	for i := 0; i < markov.NumStates; i++ {
		for j := 0; j < markov.NumStates; j++ {
			if math.Abs(fit[0][i][j]-ms[0][i][j]) > 0.02 {
				t.Fatalf("fit[%d][%d] = %v, nominal %v", i, j, fit[0][i][j], ms[0][i][j])
			}
		}
	}
}

func TestHoldingSpecMeanMatching(t *testing.T) {
	stream := rng.New(11)
	for _, spec := range []HoldingSpec{
		{Dist: DistWeibull, Shape: 0.6},
		{Dist: DistWeibull, Shape: 2},
		{Dist: DistLogNormal, Shape: 0.5},
	} {
		const mean = 20.0
		h := spec.holdFor(mean)
		total := 0.0
		const n = 200_000
		for i := 0; i < n; i++ {
			total += float64(h.Sample(stream))
		}
		got := total / n
		// Discretization by ceiling shifts the mean up by up to ~0.5.
		if got < mean-1 || got > mean+2 {
			t.Fatalf("%+v: sample mean %v, want ~%v", spec, got, mean)
		}
	}
}

func TestSemiMarkovEstimatorMatricesMemoized(t *testing.T) {
	model := NewSemiMarkov(0.6)
	model.CalibrationSlots = 2_000
	checkFitMemoExact(t, model.EstimatorMatrices)
}

func TestSemiMarkovProviderSeeded(t *testing.T) {
	ms := paperMatrices(3, 9)
	model := NewSemiMarkov(0.6)
	a := collect(model.Provider(ms, 4, false), 3, 300)
	b := collect(model.Provider(ms, 4, false), 3, 300)
	diff := false
	for tt := range a {
		for q := range a[tt] {
			if a[tt][q] != b[tt][q] {
				t.Fatalf("same seed diverged at slot %d proc %d", tt, q)
			}
		}
	}
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
}

func TestTraceModelReplayAndFit(t *testing.T) {
	tm, err := NewTraceModel("lab", []string{
		"uuurrduuu",
		"uuuuuuuuu",
	})
	if err != nil {
		t.Fatal(err)
	}
	if tm.Name() != "lab" {
		t.Fatalf("name %q", tm.Name())
	}
	dst := make([]markov.State, 2)
	prov := tm.Provider(nil, 123, true) // seed and allUp are irrelevant
	prov.States(3, dst)
	if dst[0] != markov.Reclaimed || dst[1] != markov.Up {
		t.Fatalf("slot 3: %v", dst)
	}
	prov.States(100, dst) // beyond the script: last row repeats
	if dst[0] != markov.Up || dst[1] != markov.Up {
		t.Fatalf("slot 100: %v", dst)
	}
	fit := tm.EstimatorMatrices(nil)
	if len(fit) != 2 {
		t.Fatalf("%d fitted matrices", len(fit))
	}
	// Processor 1 never leaves UP; with smoothing its believed stay-UP
	// probability must dominate.
	if fit[1][markov.Up][markov.Up] < 0.8 {
		t.Fatalf("proc 1 believed stay-UP %v", fit[1][markov.Up][markov.Up])
	}
	if again := tm.EstimatorMatrices(nil); &again[0] != &fit[0] {
		t.Fatal("trace fit not memoized")
	}
}

func TestTraceModelSizeMismatchPanics(t *testing.T) {
	tm, err := NewTraceModel("", []string{"uu", "uu"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for platform size mismatch")
		}
	}()
	tm.Provider(paperMatrices(3, 1), 0, false)
}

func TestParseScriptErrors(t *testing.T) {
	if _, err := ParseScript(nil); err == nil {
		t.Fatal("empty script accepted")
	}
	if _, err := ParseScript([]string{"uu", "u"}); err == nil {
		t.Fatal("ragged script accepted")
	}
	if _, err := ParseScript([]string{"ux"}); err == nil {
		t.Fatal("unknown state accepted")
	}
}

func TestBuiltinRegistry(t *testing.T) {
	for _, name := range Names() {
		m, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != name {
			t.Fatalf("Builtin(%q).Name() = %q", name, m.Name())
		}
	}
	if _, err := Builtin("nope"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

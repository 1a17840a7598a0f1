package avail

import (
	"math"
	"testing"

	"tightsched/internal/markov"
)

// walkStates collects n slots through the plain States interface.
func walkStates(p StateProvider, procs int, n int64) [][]markov.State {
	out := make([][]markov.State, n)
	for t := int64(0); t < n; t++ {
		row := make([]markov.State, procs)
		p.States(t, row)
		out[t] = row
	}
	return out
}

// walkRuns collects the same n slots through StatesRun with the given
// per-call limit.
func walkRuns(rp RunProvider, procs int, n, limit int64) [][]markov.State {
	out := make([][]markov.State, 0, n)
	row := make([]markov.State, procs)
	for t := int64(0); t < n; {
		lim := limit
		if rem := n - t; rem < lim {
			lim = rem
		}
		run := rp.StatesRun(t, row, lim)
		if run < 1 || run > lim {
			panic("run out of contract")
		}
		for i := int64(0); i < run; i++ {
			out = append(out, append([]markov.State(nil), row...))
		}
		t += run
	}
	return out
}

func assertSameRealization(t *testing.T, label string, a, b [][]markov.State) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths %d vs %d", label, len(a), len(b))
	}
	for slot := range a {
		for q := range a[slot] {
			if a[slot][q] != b[slot][q] {
				t.Fatalf("%s: slot %d proc %d: %v vs %v", label, slot, q, a[slot][q], b[slot][q])
			}
		}
	}
}

// TestLookaheadAdapterMatchesStatesWalk: wrapping the Markov chain
// provider in AsRunProvider consumes the RNG stream exactly as the
// slot-by-slot walk — realizations are byte-identical — and the reported
// runs are maximal (each run's successor differs unless the limit cut it).
func TestLookaheadAdapterMatchesStatesWalk(t *testing.T) {
	ms := paperMatrices(6, 5)
	const n = 5_000
	walked := walkStates(MarkovModel{}.Provider(ms, 42, false), 6, n)
	for _, limit := range []int64{1, 3, 64, n} {
		base := MarkovModel{}.Provider(ms, 42, false)
		if _, native := base.(RunProvider); native {
			t.Fatal("test premise broken: chain provider is natively a RunProvider")
		}
		rp := AsRunProvider(base)
		ran := walkRuns(rp, 6, n, limit)
		assertSameRealization(t, "lookahead", walked, ran)
	}
	// Maximality: with an unbounded limit, consecutive runs must differ
	// at their boundary.
	rp := AsRunProvider(MarkovModel{}.Provider(ms, 42, false))
	row := make([]markov.State, 6)
	prev := make([]markov.State, 6)
	slot := int64(0)
	for slot < n-1 {
		run := rp.StatesRun(slot, row, n-slot)
		if slot+run >= n {
			break
		}
		copy(prev, row)
		next := make([]markov.State, 6)
		rp2run := rp.StatesRun(slot+run, next, 1)
		if rp2run != 1 {
			t.Fatalf("limit-1 StatesRun returned %d", rp2run)
		}
		if StatesEqual(prev, next) {
			t.Fatalf("run ending at slot %d is not maximal", slot+run)
		}
		slot += run
	}
}

// TestScriptProviderStatesRun: native runs match the per-slot walk and
// the repeating tail yields whole limits at once.
func TestScriptProviderStatesRun(t *testing.T) {
	rows, err := ParseScript([]string{"uuurrd", "uuuuuu", "ddddru"})
	if err != nil {
		t.Fatal(err)
	}
	sp := &ScriptProvider{Script: rows}
	const n = 40
	walked := walkStates(sp, 3, n)
	for _, limit := range []int64{1, 2, 5, n} {
		assertSameRealization(t, "script", walked, walkRuns(sp, 3, n, limit))
	}
	// Beyond the script the last row repeats: the whole limit comes back
	// in one run.
	dst := make([]markov.State, 3)
	if run := sp.StatesRun(10, dst, 1_000_000); run != 1_000_000 {
		t.Fatalf("tail run = %d, want the full limit", run)
	}
}

// TestSojournProviderSelfConsistent: the sojourn provider's States walk
// and StatesRun view are the same realization, and runs are maximal.
func TestSojournProviderSelfConsistent(t *testing.T) {
	ms := paperMatrices(5, 7)
	const n = 20_000
	walked := walkStates(SojournMarkovModel{}.Provider(ms, 13, false), 5, n)
	for _, limit := range []int64{1, 17, n} {
		rp, ok := SojournMarkovModel{}.Provider(ms, 13, false).(RunProvider)
		if !ok {
			t.Fatal("sojourn provider is not a native RunProvider")
		}
		assertSameRealization(t, "sojourn", walked, walkRuns(rp, 5, n, limit))
	}
}

// TestSojournMatchesChainStatistics: the sojourn-sampled process is
// distributionally the Markov chain — long-run state occupancy must match
// the chain's stationary distribution within sampling noise.
func TestSojournMatchesChainStatistics(t *testing.T) {
	ms := paperMatrices(3, 11)
	const n = 200_000
	counts := make([][markov.NumStates]int64, 3)
	prov := SojournMarkovModel{}.Provider(ms, 99, false)
	row := make([]markov.State, 3)
	for slot := int64(0); slot < n; slot++ {
		prov.States(slot, row)
		for q, s := range row {
			counts[q][s]++
		}
	}
	for q, m := range ms {
		pi := m.Stationary()
		for s := 0; s < markov.NumStates; s++ {
			got := float64(counts[q][s]) / n
			if math.Abs(got-pi[s]) > 0.02 {
				t.Fatalf("proc %d state %v occupancy %.4f, stationary %.4f", q, markov.State(s), got, pi[s])
			}
		}
	}
}

// TestSojournModelBasics: exact believed matrices, registry resolution,
// allUp starts.
func TestSojournModelBasics(t *testing.T) {
	ms := paperMatrices(4, 3)
	model := SojournMarkovModel{}
	if model.Name() != "markov-sojourn" {
		t.Fatalf("name = %q", model.Name())
	}
	if got := model.EstimatorMatrices(ms); &got[0] != &ms[0] {
		t.Fatal("believed matrices must be the exact chains")
	}
	resolved, err := Builtin("markov-sojourn")
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	if resolved.Name() != "markov-sojourn" {
		t.Fatalf("registry resolves %q", resolved.Name())
	}
	row := make([]markov.State, 4)
	model.Provider(ms, 5, true).States(0, row)
	for q, s := range row {
		if s != markov.Up {
			t.Fatalf("allUp: proc %d starts %v", q, s)
		}
	}
}

// TestSojournAbsorbingState: an always-UP chain never transitions and
// yields whole limits in one run.
func TestSojournAbsorbingState(t *testing.T) {
	ms := []markov.Matrix{markov.AlwaysUp()}
	rp := SojournMarkovModel{}.Provider(ms, 1, true).(RunProvider)
	dst := make([]markov.State, 1)
	if run := rp.StatesRun(0, dst, 1_000_000); run != 1_000_000 || dst[0] != markov.Up {
		t.Fatalf("absorbing run = %d state %v", run, dst[0])
	}
}

package sched

import (
	"math"
	"testing"

	"tightsched/internal/markov"
)

// checkValueMemo drives a replay scenario's views through one instance
// per base criterion, all behind one DecisionCache, so the batch's
// candidate-Value memo serves builds of other views and other criteria.
// Every build (buildFresh, bypassing the decision table) must equal a
// cold build by a fresh instance without a cache, and every memo hit
// must equal a fresh scoring of the candidate bit for bit. A positive
// limit lowers the memo's clear threshold. It returns the cache's
// counters and how many times the memo cleared.
func checkValueMemo(t testing.TB, sc replayScenario, limit int) (DecisionStats, int) {
	dc := NewDecisionCache()
	if limit > 0 {
		dc.values.limit = limit
	}
	sc.env.Decisions = dc
	defer func() { sc.env.Decisions = nil }()

	var view int
	var crit Criterion
	valueMemoHitHook = func(memo, fresh Value) {
		if math.Float64bits(memo.P) != math.Float64bits(fresh.P) ||
			math.Float64bits(memo.E) != math.Float64bits(fresh.E) {
			t.Fatalf("%s view %d: memo hit %+v, fresh candidate value %+v", baseName(crit), view, memo, fresh)
		}
	}
	defer func() { valueMemoHitHook = nil }()

	crits := []Criterion{CritP, CritE, CritY, CritAY}
	traced := make([]*incremental, len(crits))
	for i, c := range crits {
		traced[i] = &incremental{env: sc.env, crit: c, name: baseName(c)}
	}
	clears := 0
	for i, v := range sc.views {
		view = i
		for j, c := range crits {
			crit = c
			before := dc.values.nodes
			got := traced[j].buildFresh(v)
			if dc.values.nodes < before {
				clears++
			}
			cold := &incremental{env: sc.cold, crit: c, name: baseName(c)}
			want := cold.buildFresh(v)
			if (got == nil) != (want == nil) || !got.Equal(want) {
				t.Fatalf("%s view %d (states %v, workers %+v, elapsed %d): build behind the memo %v, cold build %v",
					baseName(c), i, v.States, v.Workers, v.Elapsed, got, want)
			}
		}
	}
	return dc.Stats(), clears
}

// TestValueMemoMatchesColdBuild runs the memo differential over the replay
// generator's scenarios: small applications, applications of 70 tasks
// (two-byte decision codes) and a memo that clears every few builds. Each
// flavor must actually hit the memo, and the lowered limit must clear it.
func TestValueMemoMatchesColdBuild(t *testing.T) {
	for _, tc := range []struct {
		name         string
		tasks, limit int
	}{
		{"small", 0, 0},
		{"two-byte codes", 70, 0},
		{"overflow", 0, 8},
	} {
		var total DecisionStats
		clears := 0
		for seed := uint64(1); seed <= 60; seed++ {
			st, c := checkValueMemo(t, decodeScenarioTasks(replaySeedBytes(seed), tc.tasks), tc.limit)
			total.ValueMemoHits += st.ValueMemoHits
			total.ValueMemoLookups += st.ValueMemoLookups
			clears += c
		}
		if total.ValueMemoHits == 0 || total.ValueMemoHits == total.ValueMemoLookups {
			t.Fatalf("%s: memo not exercised: %d hits of %d lookups", tc.name, total.ValueMemoHits, total.ValueMemoLookups)
		}
		if tc.limit > 0 && clears == 0 {
			t.Fatalf("%s: the memo never cleared", tc.name)
		}
		t.Logf("%s: %d hits of %d lookups, %d clears", tc.name, total.ValueMemoHits, total.ValueMemoLookups, clears)
	}
}

// TestValueMemoSkipsWideCodes: a view whose codes do not fit a memo key
// (here a hand-built view holding more data messages than 2¹⁴) is built
// without the memo, and still equals a cold build.
func TestValueMemoSkipsWideCodes(t *testing.T) {
	env := testEnv(5, 6, 3, 3, 2)
	cold := testEnv(5, 6, 3, 3, 2)
	env.Decisions = NewDecisionCache()
	v := allUpView(env)
	v.Workers[2].DataHeld = 1 << 15
	for _, c := range []Criterion{CritP, CritE, CritY, CritAY} {
		got := (&incremental{env: env, crit: c, name: baseName(c)}).buildFresh(v)
		want := (&incremental{env: cold, crit: c, name: baseName(c)}).buildFresh(v)
		if !got.Equal(want) {
			t.Fatalf("%s: %v, cold build %v", baseName(c), got, want)
		}
	}
	if st := env.Decisions.Stats(); st.ValueMemoLookups != 0 || st.CandidatesScored == 0 {
		t.Fatalf("wide codes went through the memo: %+v", st)
	}
	v.Workers[2].DataHeld = 0
	v.States[0] = markov.Down
	(&incremental{env: env, crit: CritE, name: "IE"}).buildFresh(v)
	if st := env.Decisions.Stats(); st.ValueMemoLookups == 0 {
		t.Fatalf("narrow codes skipped the memo: %+v", st)
	}
}

// FuzzValueMemo fuzzes the memo differential. wide forces a 70-task
// application (two-byte codes); a nonzero limit lowers the memo's clear
// threshold to between 1 and 16 entries.
func FuzzValueMemo(f *testing.F) {
	for seed := uint64(1); seed <= 6; seed++ {
		f.Add(replaySeedBytes(seed), false, uint8(0))
	}
	f.Add(replaySeedBytes(7), true, uint8(0))
	f.Add(replaySeedBytes(8), false, uint8(5))
	f.Add([]byte{}, false, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, wide bool, limit uint8) {
		tasks := 0
		if wide {
			tasks = 70
		}
		lim := 0
		if limit > 0 {
			lim = 1 + int(limit)%16
		}
		checkValueMemo(t, decodeScenarioTasks(data, tasks), lim)
	})
}

package sched

import (
	"slices"
	"testing"

	"tightsched/internal/app"
	"tightsched/internal/markov"
)

// TestProactiveFastPathsMatchSlowPaths drives two instances of each
// proactive heuristic through the replay generator's view sequences, with
// the running configuration evolving as under the engine: adopted as a
// copy, dropped when an enrolled worker goes DOWN and at every seventh
// view, and replaced by IP's build at every fifth, as a wrapping
// heuristic might. One instance takes every shortcut: its views carry decision codes,
// so the candidate cache is validated by the codes' UP epoch; its running
// configuration keeps its identity between adoptions, so the
// candidate-versus-current Equal answers for one slice at once; and the
// candidate's fresh score is reused. The other walks the states, gets a
// new copy of the running configuration at every view, and forgets the
// candidate's score before every decision. Their decisions and horizons must agree.
func TestProactiveFastPathsMatchSlowPaths(t *testing.T) {
	compared := 0
	for _, name := range []string{"P-IE", "E-IY", "Y-IAY", "Y-IP"} {
		for seed := uint64(1); seed <= 60; seed++ {
			sc := decodeReplayScenario(replaySeedBytes(seed))
			fast := MustBuild(name, sc.env).(*proactive)
			slow := MustBuild(name, sc.cold).(*proactive)
			var codes Codes
			codes.Init(sc.env.Platform.Size(), sc.env.App.Tasks)
			speeds := sc.env.Platform.Speeds()
			var cur app.Assignment
			var epoch int64
			for i, view := range sc.views {
				if i > 0 && !slices.Equal(view.Workers, sc.views[i-1].Workers) {
					epoch++
				}
				for q, x := range cur {
					if x > 0 && view.States[q] == markov.Down {
						cur = nil
						break
					}
				}
				if i%7 == 6 {
					cur = nil
				}
				if i%5 == 4 {
					// A wrapper may run a configuration of its own.
					probe := &incremental{env: sc.cold, crit: CritP, name: "IP"}
					if alt := probe.buildFresh(view); alt != nil {
						cur = alt.Clone()
					}
				}
				v := *view
				v.Current, v.RetentionEpoch = cur, epoch
				if cur != nil {
					v.RemainingWork = max(1, cur.Workload(speeds)-i%3)
				}
				fv, sv := v, v
				codes.SetAll(v.States, v.Workers)
				codes.Attach(&fv)
				if cur != nil {
					sv.Current = cur.Clone()
				}
				slow.candValOK = false
				got, gotKeep := fast.DecideSpan(&fv, 5)
				want, wantKeep := slow.DecideSpan(&sv, 5)
				if (got == nil) != (want == nil) || !got.Equal(want) || gotKeep != wantKeep {
					t.Fatalf("%s seed %d view %d: fast paths decide %v for %d slots, slow paths %v for %d",
						name, seed, i, got, gotKeep, want, wantKeep)
				}
				if cur != nil && got != nil && !got.Equal(cur) {
					compared++
				}
				if got == nil {
					cur = nil
				} else if !got.Equal(cur) {
					cur = got.Clone()
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("no candidate displaced a running configuration")
	}
	t.Logf("%d switches", compared)
}

package sched

import (
	"testing"

	"tightsched/internal/analytic"
	"tightsched/internal/app"
	"tightsched/internal/markov"
	"tightsched/internal/platform"
	"tightsched/internal/rng"
)

// byteSource hands out the bytes of a scenario description, then zeros,
// so every byte string — random, fuzzed or empty — decodes to a valid
// replay scenario.
type byteSource struct{ b []byte }

func (s *byteSource) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *byteSource) intn(n int) int { return int(s.next()) % n }

func (s *byteSource) prob(lo, hi float64) float64 {
	return lo + (hi-lo)*float64(s.next())/255
}

// replayScenario is a decoded differential case: one environment for the
// traced instances, a twin environment (own analytic state, same inputs)
// for the cold builds, and a sequence of views.
type replayScenario struct {
	env, cold *Env
	views     []*View
}

// decodeReplayScenario builds a small platform — cloned processors force
// score ties, small capacities bind, an always-UP processor cannot fail —
// and walks a view sequence that flips states and retention on the
// previous cold build's winners and on other processors, drifts Elapsed,
// and passes through infeasible views.
func decodeReplayScenario(data []byte) replayScenario {
	return decodeScenarioTasks(data, 0)
}

// decodeScenarioTasks is decodeReplayScenario with the application's task
// count forced to tasks when positive (the bytes decode the same way).
func decodeScenarioTasks(data []byte, tasks int) replayScenario {
	src := &byteSource{b: data}
	p := 2 + src.intn(7)
	m := 1 + src.intn(6)
	if tasks > 0 {
		m = tasks
	}
	// Memo off re-sums series per candidate; a processor that cannot fail
	// would make that a MaxHorizon-slot pass, so it rides with the memo.
	opts := analytic.Options{DisableMemo: src.intn(4) == 0}
	procs := make([]platform.Processor, p)
	for q := range procs {
		if q > 0 && src.intn(3) == 0 {
			procs[q] = procs[src.intn(q)]
			continue
		}
		capacity := platform.UnboundedCapacity
		if src.intn(2) == 0 {
			capacity = 1 + src.intn(3)
		}
		avail := markov.PerState(src.prob(0.80, 0.995), src.prob(0.5, 0.95), src.prob(0.5, 0.95))
		if src.intn(8) == 0 && !opts.DisableMemo {
			avail = markov.AlwaysUp()
		}
		procs[q] = platform.Processor{Speed: 1 + src.intn(4), Capacity: capacity, Avail: avail}
	}
	pl := &platform.Platform{Procs: procs, Ncom: 1 + src.intn(4)}
	application := app.Application{Tasks: m, Tprog: 1 + src.intn(5), Tdata: 1 + src.intn(3), Iterations: 1}

	var believed []markov.Matrix
	if src.intn(2) == 0 {
		believed = make([]markov.Matrix, p)
		for q := range believed {
			believed[q] = markov.PerState(src.prob(0.85, 0.99), src.prob(0.6, 0.9), src.prob(0.6, 0.9))
		}
	}
	renewal := src.intn(2) == 0
	newEnv := func() *Env {
		env := &Env{Platform: pl, App: application, Believed: believed, RenewalE: renewal}
		ms := pl.Matrices()
		if believed != nil {
			ms = believed
		}
		env.Analytic = analytic.NewPlatformWith(ms, analytic.DefaultEps, opts)
		return env
	}
	sc := replayScenario{env: newEnv(), cold: newEnv()}

	states := make([]markov.State, p)
	workers := make([]WorkerInfo, p)
	var elapsed int64
	probe := &incremental{env: sc.cold, crit: CritE, name: "IE"}
	n := 8 + src.intn(40)
	for i := 0; i < n; i++ {
		// The previous view's IE winners are the processors whose flips
		// invalidate a replayed prefix.
		var winners []int
		if i > 0 {
			for q, x := range probe.buildFresh(sc.views[i-1]) {
				if x > 0 {
					winners = append(winners, q)
				}
			}
		}
		pick := func() int {
			if len(winners) > 0 && src.intn(2) == 0 {
				return winners[src.intn(len(winners))]
			}
			return src.intn(p)
		}
		for ops := 1 + src.intn(3); ops > 0; ops-- {
			switch src.intn(8) {
			case 0, 1:
				states[pick()] = markov.State(src.intn(markov.NumStates))
			case 2:
				q := pick()
				workers[q].HasProgram = !workers[q].HasProgram
			case 3:
				workers[pick()].DataHeld = src.intn(m + 1)
			case 4:
				elapsed += int64(src.intn(40))
			case 5:
				elapsed = int64(src.intn(8))
			case 6:
				for q := range states {
					states[q] = markov.Down
				}
			case 7:
				// Unchanged view: the build must replay in full.
			}
			if src.intn(6) == 0 {
				for q := range states {
					states[q] = markov.Up
				}
			}
		}
		sc.views = append(sc.views, &View{
			Slot:    int64(i),
			States:  append([]markov.State(nil), states...),
			Workers: append([]WorkerInfo(nil), workers...),
			Elapsed: elapsed,
		})
	}
	return sc
}

// checkReplay drives the scenario's views through one traced instance per
// base criterion and requires every build to equal, nil-ness included, a
// cold build by a fresh instance. It returns the traced builds' candidate
// traffic.
func checkReplay(t testing.TB, data []byte) DecisionStats {
	sc := decodeReplayScenario(data)
	var total DecisionStats
	for _, crit := range []Criterion{CritP, CritE, CritY, CritAY} {
		traced := &incremental{env: sc.env, crit: crit, name: baseName(crit)}
		for i, v := range sc.views {
			// A fresh decision cache per build makes every build a miss
			// whose candidate traffic the cache counts.
			sc.env.Decisions = NewDecisionCache()
			got := traced.build(v)
			st := sc.env.Decisions.Stats()
			total.Replays += st.Replays
			total.CandidatesScored += st.CandidatesScored
			total.CandidatesReused += st.CandidatesReused

			cold := &incremental{env: sc.cold, crit: crit, name: baseName(crit)}
			want := cold.buildFresh(v)
			if (got == nil) != (want == nil) || !got.Equal(want) {
				t.Fatalf("%s view %d (states %v, workers %+v, elapsed %d): replayed build %v, cold build %v",
					baseName(crit), i, v.States, v.Workers, v.Elapsed, got, want)
			}
		}
	}
	sc.env.Decisions = nil
	return total
}

// replaySeedBytes is the generator shared by the differential test and
// the fuzz corpus.
func replaySeedBytes(seed uint64) []byte {
	r := rng.New(seed)
	b := make([]byte, 512)
	for i := range b {
		b[i] = byte(r.IntN(256))
	}
	return b
}

// TestBuildReplayMatchesColdBuild: replaying a heuristic instance's
// previous build gives exactly the assignment a fresh instance builds, on
// random view sequences for every base criterion — and the replay is
// actually exercised (candidates reused, whole builds replayed).
func TestBuildReplayMatchesColdBuild(t *testing.T) {
	var total DecisionStats
	for seed := uint64(1); seed <= 300; seed++ {
		st := checkReplay(t, replaySeedBytes(seed))
		total.Replays += st.Replays
		total.CandidatesScored += st.CandidatesScored
		total.CandidatesReused += st.CandidatesReused
	}
	if total.Replays == 0 || total.CandidatesReused == 0 || total.CandidatesScored == 0 {
		t.Fatalf("replay not exercised: %+v", total)
	}
	t.Logf("replays %d, candidates scored %d, reused %d", total.Replays, total.CandidatesScored, total.CandidatesReused)
}

// TestBuildReplayCounts pins the candidate traffic of a known sequence:
// a cold build scores every candidate, an identical view replays all of
// them, and a retention loss on a non-winner rescores only it.
func TestBuildReplayCounts(t *testing.T) {
	env := testEnv(11, 6, 3, 3, 2)
	v := allUpView(env)
	for q := range v.Workers {
		v.Workers[q].HasProgram = true
	}
	h := &incremental{env: env, crit: CritE, name: "IE"}
	build := func() DecisionStats {
		env.Decisions = NewDecisionCache()
		defer func() { env.Decisions = nil }()
		h.build(v)
		return env.Decisions.Stats()
	}
	if st := build(); st.CandidatesScored != 18 || st.CandidatesReused != 0 || st.Replays != 0 {
		t.Fatalf("cold build: %+v", st)
	}
	if st := build(); st.CandidatesScored != 0 || st.CandidatesReused != 18 || st.Replays != 1 {
		t.Fatalf("identical view: %+v", st)
	}
	first := h.buildFresh(v)
	loser := -1
	for q, x := range first {
		if x == 0 {
			loser = q
			break
		}
	}
	if loser < 0 {
		t.Skip("every processor won a task")
	}
	v.Workers[loser].HasProgram = false // only makes the loser worse
	st := build()
	if st.Replays != 1 || st.CandidatesScored != 3 || st.CandidatesReused != 15 {
		t.Fatalf("non-winner retention change: %+v", st)
	}
}

// FuzzBuildReplay fuzzes the differential check; the corpus is seeded
// from the generator the deterministic test uses.
func FuzzBuildReplay(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(replaySeedBytes(seed))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReplay(t, data)
	})
}

// TestBuildReusesEqualAssignments drives IE, Y-IE and IY over the replay
// generator's views, alone and behind a decision cache. A fresh build
// Equal to the instance's previous non-nil fresh build must return that
// build's backing array, and no returned assignment may change after it
// is returned — sharing them is safe only because they are immutable.
func TestBuildReusesEqualAssignments(t *testing.T) {
	type returned struct {
		asg, snapshot app.Assignment
	}
	shared := 0
	for _, name := range []string{"IE", "Y-IE", "IY"} {
		for _, cached := range []bool{false, true} {
			for seed := uint64(1); seed <= 100; seed++ {
				sc := decodeReplayScenario(replaySeedBytes(seed))
				if cached {
					sc.env.Decisions = NewDecisionCache()
				}
				h, err := Build(name, sc.env)
				if err != nil {
					t.Fatal(err)
				}
				misses := func() uint64 {
					if !cached {
						return 0
					}
					return sc.env.Decisions.Stats().Misses
				}
				var all []returned
				var prev app.Assignment // previous non-nil fresh build
				for i, view := range sc.views {
					// A new retention epoch per view makes Y-IE rebuild
					// its candidate every time, as IE and IY do.
					v := *view
					v.RetentionEpoch = int64(i)
					before := misses()
					got := h.Decide(&v)
					if got == nil {
						continue
					}
					all = append(all, returned{got, got.Clone()})
					if cached && misses() == before {
						continue // a cache hit, not a build
					}
					if got.Equal(prev) {
						if &got[0] != &prev[0] {
							t.Fatalf("%s cached=%v seed %d view %d: equal consecutive builds %v return distinct arrays",
								name, cached, seed, i, got)
						}
						shared++
					}
					prev = got
				}
				for i, r := range all {
					if !r.asg.Equal(r.snapshot) {
						t.Fatalf("%s cached=%v seed %d: returned assignment %d changed from %v to %v",
							name, cached, seed, i, r.snapshot, r.asg)
					}
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no consecutive equal builds exercised")
	}
	t.Logf("%d equal consecutive builds shared their array", shared)
}

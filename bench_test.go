// Benchmarks regenerating each of the paper's evaluation artifacts
// (Table I, Table II, Figure 2, the Figure 1 trace) at reduced scale, plus
// ablation benches for the design choices documented in DESIGN.md. Run
//
//	go test -bench=. -benchmem
//
// at the repository root. The full-scale artifacts are produced by
// cmd/tables (-scale full); these benches keep each regeneration small
// enough to serve as a continuously-run performance regression net.
package tightsched_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"tightsched"
	"tightsched/internal/analytic"
	"tightsched/internal/app"
	"tightsched/internal/avail"
	"tightsched/internal/exp"
	"tightsched/internal/grid"
	"tightsched/internal/markov"
	"tightsched/internal/platform"
	"tightsched/internal/rng"
	"tightsched/internal/sched"
	"tightsched/internal/sim"
)

// miniSweep is a single-point sweep preserving the full heuristic set.
func miniSweep(m int) exp.Sweep {
	return exp.Sweep{
		M:          m,
		Ncoms:      []int{10},
		Wmins:      []int{1},
		Scenarios:  1,
		Trials:     1,
		P:          20,
		Iterations: 5,
		Cap:        50_000,
		Seed:       20130522,
	}
}

// BenchmarkTableI regenerates a miniature Table I (m = 5, all 17
// heuristics) per iteration and reports the best heuristic's %diff.
func BenchmarkTableI(b *testing.B) {
	sweep := miniSweep(5)
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(context.Background(), sweep, exp.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		rows, err := res.Table(exp.ReferenceHeuristic)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 17 {
			b.Fatalf("got %d rows", len(rows))
		}
		b.ReportMetric(rows[0].Diff, "best%diff")
	}
}

// BenchmarkTableII regenerates a miniature Table II (m = 10, the paper's
// best-eight heuristics).
func BenchmarkTableII(b *testing.B) {
	sweep := miniSweep(10)
	sweep.Heuristics = []string{"Y-IE", "P-IE", "E-IAY", "E-IY", "E-IP", "IAY", "IY", "IE"}
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(context.Background(), sweep, exp.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		rows, err := res.Table(exp.ReferenceHeuristic)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkFigure2 regenerates a miniature Figure 2 (the %diff-vs-wmin
// series for m = 10 over a reduced wmin axis).
func BenchmarkFigure2(b *testing.B) {
	sweep := miniSweep(10)
	sweep.Wmins = []int{1, 2}
	sweep.Heuristics = []string{"Y-IE", "P-IE", "IE", "IAY"}
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(context.Background(), sweep, exp.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		series, err := res.Figure2(exp.ReferenceHeuristic)
		if err != nil {
			b.Fatal(err)
		}
		if len(series["Y-IE"]) != len(sweep.Wmins) {
			b.Fatal("short series")
		}
	}
}

// BenchmarkFigure1Trace replays the paper's Figure 1 scripted execution.
func BenchmarkFigure1Trace(b *testing.B) {
	procs := make([]platform.Processor, 5)
	for i := range procs {
		procs[i] = platform.Processor{
			Speed: i + 1, Capacity: platform.UnboundedCapacity, Avail: markov.Uniform(0.95),
		}
	}
	pl := &platform.Platform{Procs: procs, Ncom: 2}
	script, err := sim.ParseScript([]string{
		"ddddddddddddddd",
		"uuuuuuuuurruuuu",
		"uurruuuuuuuruuu",
		"uuuuuuuuuuuuuuu",
		"ddddddddddddddd",
	})
	if err != nil {
		b.Fatal(err)
	}
	fixed := fixedAssignment{app.Assignment{0, 2, 2, 1, 0}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Platform: pl,
			App:      app.Application{Tasks: 5, Tprog: 2, Tdata: 1, Iterations: 1},
			Custom:   fixed,
			Provider: &sim.ScriptProvider{Script: script},
			Cap:      100,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Makespan != 15 {
			b.Fatalf("makespan %d", res.Makespan)
		}
	}
}

type fixedAssignment struct{ asg app.Assignment }

func (f fixedAssignment) Name() string { return "FIXED" }

func (f fixedAssignment) Decide(v *sched.View) app.Assignment {
	if v.Current != nil {
		return v.Current
	}
	for q, x := range f.asg {
		if x > 0 && v.States[q] != markov.Up {
			return nil
		}
	}
	return f.asg
}

// benchPlatform builds a paper-style analytic platform.
func benchPlatform(p int, eps float64) *analytic.Platform {
	stream := rng.New(1)
	ms := make([]markov.Matrix, p)
	for i := range ms {
		ms[i] = markov.PerState(stream.Uniform(0.90, 0.99),
			stream.Uniform(0.90, 0.99), stream.Uniform(0.90, 0.99))
	}
	return analytic.NewPlatform(ms, eps)
}

// BenchmarkAnalyticPplus measures the Theorem 5.1 series evaluation for a
// 5-worker set (the inner loop of every heuristic decision).
func BenchmarkAnalyticPplus(b *testing.B) {
	pl := benchPlatform(20, analytic.DefaultEps)
	members := []int{0, 3, 7, 11, 19}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := pl.StatsOf(members)
		if st.Pplus <= 0 {
			b.Fatal("bad stats")
		}
	}
}

// benchPlatformWith is benchPlatform with explicit evaluation options.
func benchPlatformWith(p int, eps float64, opts analytic.Options) *analytic.Platform {
	stream := rng.New(1)
	ms := make([]markov.Matrix, p)
	for i := range ms {
		ms[i] = markov.PerState(stream.Uniform(0.90, 0.99),
			stream.Uniform(0.90, 0.99), stream.Uniform(0.90, 0.99))
	}
	return analytic.NewPlatformWith(ms, eps, opts)
}

// benchMemberSets enumerates distinct 3-member sets of a 20-processor
// platform, so miss-path benchmarks never hit a memo.
func benchMemberSets(n int) [][]int {
	sets := make([][]int, 0, n)
	for a := 0; a < 20 && len(sets) < n; a++ {
		for c := a + 1; c < 20 && len(sets) < n; c++ {
			for e := c + 1; e < 20 && len(sets) < n; e++ {
				sets = append(sets, []int{a, c, e})
			}
		}
	}
	return sets
}

// BenchmarkStatsOf measures the evaluation (memo-miss) cost of a set's
// Theorem 5.1 statistics by the truncated series, over rotating member
// sets so no memo can hit.
func BenchmarkStatsOf(b *testing.B) {
	sets := benchMemberSets(512)
	for _, bench := range []struct {
		name string
		opts analytic.Options
	}{
		{"series", analytic.Options{DisableMemo: true}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			pl := benchPlatformWith(20, sim.DefaultEps, bench.opts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := pl.StatsOf(sets[i%len(sets)])
				if st.Pplus <= 0 {
					b.Fatal("bad stats")
				}
			}
		})
	}
}

// BenchmarkStatsOfCached measures the memo hit path: the steady-state
// cost of re-scoring a set the platform has already evaluated.
func BenchmarkStatsOfCached(b *testing.B) {
	pl := benchPlatformWith(20, sim.DefaultEps, analytic.Options{})
	members := []int{0, 3, 7, 11, 19}
	pl.StatsOf(members) // warm the entry
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := pl.StatsOf(members)
		if st.Pplus <= 0 {
			b.Fatal("bad stats")
		}
	}
}

// BenchmarkSweepPoint runs one full campaign point end-to-end — platform
// generation, per-worker analytic cache, simulation, aggregation — the
// unit the campaign throughput north-star multiplies. It is also the
// callback path: exp.Run consumes the event stream, so the pair
// (SweepPoint, StreamOverhead) measures the same work consumed through
// the two API shapes.
func BenchmarkSweepPoint(b *testing.B) {
	sweep := miniSweep(5)
	sweep.Heuristics = []string{"IE", "Y-IE", "RANDOM"}
	sweep.Workers = 1 // single-threaded: ns/op must not depend on core count
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(context.Background(), sweep, exp.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Instances) != 3 {
			b.Fatalf("got %d instances", len(res.Instances))
		}
	}
}

// BenchmarkStreamOverhead runs exactly BenchmarkSweepPoint's campaign
// point but consumes it through the raw exp.Stream event iterator — the
// path every Session campaign (and exp.Run's callbacks) rides.
// The benchgate CI job gates its ns/op against the committed baseline;
// the design requirement is that events cost < 5% over the callback
// figure of BenchmarkSweepPoint, which the baseline pair documents (the
// dominant cost is the simulations; events add a few channel sends and
// type switches per instance, not per slot).
func BenchmarkStreamOverhead(b *testing.B) {
	sweep := miniSweep(5)
	sweep.Heuristics = []string{"IE", "Y-IE", "RANDOM"}
	sweep.Workers = 1 // single-threaded: ns/op must not depend on core count
	for i := 0; i < b.N; i++ {
		instances := 0
		for ev, err := range exp.Stream(context.Background(), sweep, exp.RunOptions{}) {
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := ev.(exp.InstanceDone); ok {
				instances++
			}
		}
		if instances != 3 {
			b.Fatalf("got %d instances", instances)
		}
	}
}

// BenchmarkAnalyticCandidate measures one incremental candidate
// evaluation: the set statistics of S ∪ {q} given a built S.
func BenchmarkAnalyticCandidate(b *testing.B) {
	pl := benchPlatform(20, sim.DefaultEps)
	se := pl.NewSetEval()
	for _, q := range []int{0, 3, 7, 11} {
		se.Add(q)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := se.CandidateStats(19)
		if st.Pplus <= 0 {
			b.Fatal("bad stats")
		}
	}
}

// BenchmarkHeuristicDecide measures one full scheduling decision (fresh
// configuration build) for a passive and a proactive heuristic. Decisions
// alternate between two views that differ in every worker's retention,
// so no candidate Value carries over from the previous build and each
// decision pays a cold build (see alternatingViews).
func BenchmarkHeuristicDecide(b *testing.B) {
	for _, name := range []string{"IE", "IP", "Y-IE"} {
		b.Run(name, func(b *testing.B) {
			sc := tightsched.PaperScenario(10, 10, 5, 42)
			env := &sched.Env{
				Platform: sc.Platform,
				App:      sc.App,
				Analytic: analytic.NewPlatform(sc.Platform.Matrices(), sim.DefaultEps),
				Rand:     rng.New(7),
			}
			h := sched.MustBuild(name, env)
			views := alternatingViews(sc.Platform.Size())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := views[i%2]
				v.RetentionEpoch = int64(i) // defeat the proactive cache
				if asg := h.Decide(v); asg == nil {
					b.Fatal("no configuration")
				}
			}
		})
	}
}

// alternatingViews returns two all-UP fresh-iteration views whose
// retention differs on every worker: a heuristic deciding on them in
// turn replays nothing from its previous build, so every build is cold.
func alternatingViews(p int) [2]*sched.View {
	var views [2]*sched.View
	for i := range views {
		views[i] = &sched.View{
			States:  make([]markov.State, p),
			Workers: make([]sched.WorkerInfo, p),
		}
	}
	for q := range views[1].Workers {
		views[1].Workers[q] = sched.WorkerInfo{HasProgram: true, DataHeld: 1}
	}
	return views
}

// BenchmarkDecideAllocations tracks per-decision cost in the scheduling
// hot path: allocs/op (exact, machine-independent, gated tightly) and
// ns/op (gated generously; see cmd/benchgate). The platform runs with
// the default options, the production configuration: memo hits make a
// repeated decision a handful of map lookups, and first-sight (miss)
// evaluations pay one truncated series each. Decisions alternate
// between two views that differ in every worker's retention, so each
// one is a cold build (the churn a real walk produces, where
// builds replay part of their predecessor, is BenchmarkDecideChurn's
// subject). Before heuristics owned scratch buffers one passive decision
// cost ~17 allocs / ~21 KB; with reuse it is down to the returned
// assignment. A regression here multiplies across every slot of every
// simulation of a sweep.
func BenchmarkDecideAllocations(b *testing.B) {
	for _, name := range []string{"IE", "Y-IE", "RANDOM", "FASTEST"} {
		b.Run(name, func(b *testing.B) {
			sc := tightsched.PaperScenario(10, 10, 5, 42)
			env := &sched.Env{
				Platform: sc.Platform,
				App:      sc.App,
				Analytic: analytic.NewPlatformWith(sc.Platform.Matrices(), sim.DefaultEps,
					analytic.Options{}),
				Rand: rng.New(7),
			}
			h := sched.MustBuild(name, env)
			views := alternatingViews(sc.Platform.Size())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := views[i%2]
				v.RetentionEpoch = int64(i) // defeat the proactive cache
				if asg := h.Decide(v); asg == nil {
					b.Fatal("no configuration")
				}
			}
		})
	}
}

// BenchmarkDecideChurn measures fresh builds on a fixed view sequence
// recorded from a paper-scenario Markov walk: every decision epoch (a
// change of the UP set or of retention) IE met in one run, with the
// running configuration cleared so each view asks for a build. Successive
// views differ the way a real walk's do — a few workers flip state or
// finish a message — so the builds replay their predecessor's candidate
// Values where those still hold. One op is one decision.
func BenchmarkDecideChurn(b *testing.B) {
	sc := tightsched.PaperScenario(10, 10, 5, 42)
	newEnv := func() *sched.Env {
		return &sched.Env{
			Platform: sc.Platform,
			App:      sc.App,
			Analytic: analytic.NewPlatform(sc.Platform.Matrices(), sim.DefaultEps),
		}
	}
	rec := &epochRecorder{Heuristic: sched.MustBuild("IE", newEnv()), max: 400}
	if _, err := sim.Run(sim.Config{
		Platform: sc.Platform, App: sc.App, Custom: rec, Seed: 1, Cap: 50_000,
	}); err != nil {
		b.Fatal(err)
	}
	if len(rec.views) < rec.max {
		b.Fatalf("recorded %d decision epochs, want %d", len(rec.views), rec.max)
	}
	for _, name := range []string{"IE", "Y-IE", "IY"} {
		b.Run(name, func(b *testing.B) {
			h := sched.MustBuild(name, newEnv())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Decide(rec.views[i%len(rec.views)])
			}
		})
	}
}

// epochRecorder wraps a heuristic and records (up to max) copies of the
// views at which the UP set or the retention epoch changed, with the
// running configuration cleared.
type epochRecorder struct {
	sched.Heuristic
	views []*sched.View
	max   int
}

func (r *epochRecorder) Decide(v *sched.View) app.Assignment {
	if n := len(r.views); n < r.max && (n == 0 || r.views[n-1].RetentionEpoch != v.RetentionEpoch ||
		!upSetEqual(r.views[n-1].States, v.States)) {
		r.views = append(r.views, &sched.View{
			Slot:           v.Slot,
			States:         append([]markov.State(nil), v.States...),
			Workers:        append([]sched.WorkerInfo(nil), v.Workers...),
			Elapsed:        v.Elapsed,
			RetentionEpoch: v.RetentionEpoch,
		})
	}
	return r.Heuristic.Decide(v)
}

func upSetEqual(a, b []markov.State) bool {
	for q := range a {
		if (a[q] == markov.Up) != (b[q] == markov.Up) {
			return false
		}
	}
	return true
}

// benchEngineScenarios are the engine-core benchmark settings: "markov"
// is a paper-style platform under the default Markov provider (the leap
// engine still steps the chain RNG slot by slot, so it measures the
// macro-step machinery alone), "longsojourn" is the regime the leap core
// exists for — self-loop probabilities pushed toward 1 (hour-scale UP
// stretches at the paper's slot granularity) under the sojourn-sampled
// provider, where simulation cost collapses from per-slot to
// per-transition — and "capbound" is the worst case the paper's
// DefaultCap exists for: a permanently infeasible platform ground to the
// million-slot cap, which the leap engine crosses in O(cap / maxLeap)
// macro-steps.
func benchEngineScenarios(b *testing.B) []struct {
	name     string
	wantFail bool
	cfg      sim.Config
} {
	paper := platform.GeneratePaper(platform.PaperConfig{
		P: 20, Wmin: 3, Ncom: 10, StayLo: 0.90, StayHi: 0.99,
	}, rng.New(42))
	sojourn := platform.GeneratePaper(platform.PaperConfig{
		P: 20, Wmin: 20, Ncom: 10, StayLo: 0.9990, StayHi: 0.9999,
	}, rng.New(42))
	allDown, err := sim.ParseScript([]string{
		"dd", "dd", "dd", "dd", "dd", "dd", "dd", "dd", "dd", "dd",
		"dd", "dd", "dd", "dd", "dd", "dd", "dd", "dd", "dd", "dd",
	})
	if err != nil {
		b.Fatal(err)
	}
	return []struct {
		name     string
		wantFail bool
		cfg      sim.Config
	}{
		{"markov", false, sim.Config{
			Platform:     paper,
			App:          app.Application{Tasks: 5, Tprog: 15, Tdata: 3, Iterations: 20},
			Heuristic:    "IE",
			Seed:         7,
			Cap:          600_000,
			InitialAllUp: true,
		}},
		{"longsojourn", false, sim.Config{
			Platform:     sojourn,
			App:          app.Application{Tasks: 5, Tprog: 100, Tdata: 20, Iterations: 20},
			Heuristic:    "IE",
			Seed:         7,
			Cap:          600_000,
			InitialAllUp: true,
			Model:        avail.SojournMarkovModel{},
		}},
		// 200k slots rather than the paper's full DefaultCap keeps the
		// slot-engine side of the pair affordable in CI; the ratio is
		// cap-independent (leap crosses the idle stretch in O(cap/maxLeap)
		// macro-steps, the slot loop in O(cap) full passes).
		{"capbound", true, sim.Config{
			Platform:  paper,
			App:       app.Application{Tasks: 5, Tprog: 15, Tdata: 3, Iterations: 20},
			Heuristic: "IE",
			Seed:      7,
			Cap:       200_000,
			Provider:  &sim.ScriptProvider{Script: allDown},
		}},
	}
}

// benchEngine runs the engine-core scenarios under one time-advance mode.
// The pair (BenchmarkEngineSlotLoop, BenchmarkEngineLeap) is the gated
// record of the event-leap refactor: identical simulations (results are
// byte-identical; the differential tests pin it), different cores. The
// analytic platform cache is shared across iterations, exactly as a
// campaign worker shares it across a point's trials, so ns/op measures
// the engine loop rather than per-run eigendecomposition setup.
func benchEngine(b *testing.B, advance sim.TimeAdvance) {
	for _, sc := range benchEngineScenarios(b) {
		b.Run(sc.name, func(b *testing.B) {
			cfg := sc.cfg
			cfg.Advance = advance
			cfg.AnalyticCache = analytic.NewPlatformCache()
			if res, err := sim.Run(cfg); err != nil || res.Failed != sc.wantFail {
				b.Fatalf("warmup run: %+v err=%v", res, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Failed != sc.wantFail {
					b.Fatalf("benchmark run: %+v", res)
				}
				b.ReportMetric(float64(res.Makespan), "slots")
			}
		})
	}
}

// BenchmarkEngineSlotLoop measures the reference slot-stepped core.
func BenchmarkEngineSlotLoop(b *testing.B) { benchEngine(b, sim.AdvanceSlot) }

// BenchmarkEngineLeap measures the event-leap macro-step core on the same
// scenarios. The benchgate baseline pair documents the speedup (≥5× on
// the long-sojourn scenario is this PR's acceptance bar).
func BenchmarkEngineLeap(b *testing.B) { benchEngine(b, sim.AdvanceLeap) }

// BenchmarkBatchSweepCell runs one full campaign cell — the paper's 17
// heuristics over 2 shared-realization trials — as a single lockstep
// batch, the dispatch unit of every sweep. The analytic
// cache is shared across iterations exactly as a campaign worker shares
// it across cells of one point.
func BenchmarkBatchSweepCell(b *testing.B) {
	sc := tightsched.PaperScenario(5, 10, 1, 20130522)
	base := sim.Config{
		Platform:      sc.Platform,
		App:           sc.App,
		Cap:           50_000,
		AnalyticCache: analytic.NewPlatformCache(),
	}
	var insts []sim.BatchInstance
	for trial := 0; trial < 2; trial++ {
		for _, h := range tightsched.PaperHeuristics() {
			insts = append(insts, sim.BatchInstance{Heuristic: h, Seed: uint64(1000 + trial)})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, _, err := sim.RunBatch(context.Background(), base, insts)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(insts) {
			b.Fatalf("got %d results", len(results))
		}
	}
}

// BenchmarkEngineSlots measures raw engine throughput in slots/op with a
// passive heuristic on a paper-size platform.
func BenchmarkEngineSlots(b *testing.B) {
	sc := tightsched.PaperScenario(5, 10, 3, 42)
	session := tightsched.NewSession(tightsched.WithCap(5_000))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := session.Run(ctx, sc, "IE", tightsched.WithSeed(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Makespan), "slots/op")
	}
}

// BenchmarkAblationCompletionForm compares the renewal-form E(S)(W)
// (used by the heuristics) against the formula as printed in the paper;
// the printed form's (P⁺)^{W−1} denominator makes it blow up for large W.
// DESIGN.md documents why the renewal form is the one Monte-Carlo
// validates.
func BenchmarkAblationCompletionForm(b *testing.B) {
	pl := benchPlatform(20, analytic.DefaultEps)
	st := pl.StatsOf([]int{0, 1, 2, 3})
	b.Run("renewal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if st.ExpectedCompletion(50) <= 0 {
				b.Fatal("bad value")
			}
		}
		b.ReportMetric(st.ExpectedCompletion(50), "E(50)")
	})
	b.Run("paper", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if st.ExpectedCompletionPaper(50) <= 0 {
				b.Fatal("bad value")
			}
		}
		b.ReportMetric(st.ExpectedCompletionPaper(50), "E(50)")
	})
}

// BenchmarkAblationRenewalHeuristics runs the same scenario with the
// heuristics optimizing the paper-form E (default; reproduces published
// rankings) versus the Monte-Carlo-correct renewal form. The makespan
// metrics show how much the formula choice changes actual scheduling
// behaviour (see DESIGN.md, "Reproduction notes").
func BenchmarkAblationRenewalHeuristics(b *testing.B) {
	for _, renewal := range []bool{false, true} {
		name := "paper-form"
		if renewal {
			name = "renewal-form"
		}
		b.Run(name, func(b *testing.B) {
			sc := tightsched.PaperScenario(5, 10, 3, 55)
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(sim.Config{
					Platform:  sc.Platform,
					App:       sc.App,
					Heuristic: "IE",
					Seed:      21,
					Cap:       200_000,
					RenewalE:  renewal,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Makespan), "makespan")
				b.ReportMetric(float64(res.Restarts), "restarts")
			}
		})
	}
}

// BenchmarkAblationEpsilon quantifies the engine-precision design choice
// (DefaultEps = 1e-6 for heuristic ranking): the makespan metric shows
// decisions are insensitive to tighter precision while the cost rises.
func BenchmarkAblationEpsilon(b *testing.B) {
	for _, eps := range []float64{1e-4, 1e-6, 1e-9} {
		b.Run(fmtEps(eps), func(b *testing.B) {
			sc := tightsched.PaperScenario(5, 10, 2, 42)
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(sim.Config{
					Platform:  sc.Platform,
					App:       sc.App,
					Heuristic: "Y-IE",
					Seed:      9,
					Cap:       100_000,
					Eps:       eps,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Makespan), "makespan")
			}
		})
	}
}

func fmtEps(eps float64) string {
	switch eps {
	case 1e-4:
		return "eps=1e-4"
	case 1e-6:
		return "eps=1e-6"
	default:
		return "eps=1e-9"
	}
}

// BenchmarkAblationProactive quantifies the passive-versus-proactive
// design axis on one scenario: same platform, same availability, three
// policies.
func BenchmarkAblationProactive(b *testing.B) {
	for _, name := range []string{"IE", "Y-IE", "P-IE"} {
		b.Run(name, func(b *testing.B) {
			sc := tightsched.PaperScenario(5, 10, 2, 77)
			session := tightsched.NewSession(tightsched.WithSeed(13), tightsched.WithCap(200_000))
			for i := 0; i < b.N; i++ {
				res, err := session.Run(context.Background(), sc, name)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Makespan), "makespan")
			}
		})
	}
}

// BenchmarkAblationSurviveCache measures the quantized survival cache
// against direct closed-form evaluation (the math.Pow path).
func BenchmarkAblationSurviveCache(b *testing.B) {
	pl := benchPlatform(1, analytic.DefaultEps)
	p := pl.Procs[0]
	b.Run("quantized", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += p.SurviveQ(float64(i%200) * 0.37)
		}
		_ = sink
	})
	b.Run("direct", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += p.SurviveReal(float64(i%200) * 0.37)
		}
		_ = sink
	})
}

// BenchmarkOnlineStep runs one complete online grid simulation — the
// quick campaign's recorded trace through EDF admission with
// lowest-priority preemption on the tiered platform — per op. It is the
// online layer's SweepPoint: the benchgate baseline pins the cost of
// one Table IV instance.
func BenchmarkOnlineStep(b *testing.B) {
	g := exp.QuickOnlineSweep()
	g.Horizon = 4_000
	g.Trials = 1
	g.Arrivals = g.Arrivals[1:2] // the recorded trace
	g.Admissions = []string{"edf"}
	g.Preemptions = []string{"lowest-priority"}
	g.Workers = 1
	for i := 0; i < b.N; i++ {
		res, err := exp.RunGrid(context.Background(), g, nil, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Instances) != 1 {
			b.Fatalf("got %d instances", len(res.Instances))
		}
	}
}

// BenchmarkArrivalStream materializes a 100-application Poisson arrival
// stream per op — the per-trial setup cost every online instance pays
// before its first slot.
func BenchmarkArrivalStream(b *testing.B) {
	spec := grid.ArrivalSpec{Kind: grid.KindPoisson, MeanGap: 120, Apps: 100, WminLo: 1, WminHi: 3, DeadlineFactor: 15}
	shape := grid.Shape{M: 5, Iterations: 5, AppProcs: 4, Ncom: 6}
	for i := 0; i < b.N; i++ {
		arrivals := spec.Materialize(rng.NewKeyed(uint64(i), 0xa221), shape)
		if len(arrivals) != 100 {
			b.Fatalf("got %d arrivals", len(arrivals))
		}
	}
}

// ---- journal codec benches -------------------------------------------------

// journalBenchSweep is a wide campaign shape — 100,000 instances — whose
// journal the codec benches write and replay. The instances themselves
// are synthesized (no simulation): these benches isolate codec and
// aggregation throughput.
func journalBenchSweep() exp.Sweep {
	s := miniSweep(10)
	s.Scenarios = 2500
	s.Trials = 10
	s.Heuristics = []string{"IE", "Y-IE", "RANDOM", "IAY"}
	return s
}

// synthInstance derives a deterministic outcome for one campaign
// coordinate: varied makespans, an occasional failure at the cap.
func synthInstance(c exp.Coord, h string, i int) exp.InstanceResult {
	inst := exp.InstanceResult{Point: c.Point, Trial: c.Trial, Model: c.Model, Heuristic: h}
	if i%97 == 0 {
		inst.Failed = true
		inst.Makespan = 50_000
	} else {
		inst.Makespan = int64(1_000 + (i*37)%9_000)
	}
	return inst
}

// buildBenchJournal writes the full synthetic campaign journal in the
// given format and returns its path and instance count.
func buildBenchJournal(b *testing.B, format exp.Format) (string, int) {
	b.Helper()
	s := journalBenchSweep()
	path := filepath.Join(b.TempDir(), "bench."+format.String())
	j, err := exp.CreateJournalFormat(path, s, exp.Shard{}, format)
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	for _, c := range s.Coords() {
		for _, h := range s.Heuristics {
			if err := j.Append(synthInstance(c, h, n)); err != nil {
				b.Fatal(err)
			}
			n++
		}
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	return path, n
}

// benchJournalAppend measures one journal record append (encode + flushed
// write) per op. A journal holds each key once, so once b.N runs past
// the campaign's keys the bench starts a fresh journal, off the clock.
func benchJournalAppend(b *testing.B, format exp.Format) {
	s := journalBenchSweep()
	path := filepath.Join(b.TempDir(), "append."+format.String())
	create := func() *exp.Journal {
		j, err := exp.CreateJournalFormat(path, s, exp.Shard{}, format)
		if err != nil {
			b.Fatal(err)
		}
		return j
	}
	j := create()
	defer func() { j.Close() }()
	coords := s.Coords()
	heuristics := s.Heuristics
	keys := len(coords) * len(heuristics)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%keys == 0 {
			b.StopTimer()
			if err := j.Close(); err != nil {
				b.Fatal(err)
			}
			if err := os.Remove(path); err != nil {
				b.Fatal(err)
			}
			j = create()
			b.StartTimer()
		}
		c := coords[(i/len(heuristics))%len(coords)]
		if err := j.Append(synthInstance(c, heuristics[i%len(heuristics)], i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJournalAppendJSONL(b *testing.B)  { benchJournalAppend(b, exp.FormatJSONL) }
func BenchmarkJournalAppendBinary(b *testing.B) { benchJournalAppend(b, exp.FormatBinary) }

// benchJournalReplay measures streaming aggregation over the full
// 100k-instance journal per op: decode every record, skip repeated keys
// and fold it into the table accumulator, both by the record's grid
// position, render nothing. This is the replay path behind
// tables -resume and the daemon's restart recovery. With the JSONL
// sweep codec off encoding/json the two formats allocate alike; binary
// still decodes faster (ci/bench_baseline.json records both).
func benchJournalReplay(b *testing.B, format exp.Format) {
	path, n := buildBenchJournal(b, format)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exp.AggregateJournal(path)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			rows, err := res.Table(exp.ReferenceHeuristic)
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) != len(journalBenchSweep().Heuristics) {
				b.Fatalf("got %d rows over %d instances", len(rows), n)
			}
		}
	}
}

func BenchmarkJournalReplayJSONL(b *testing.B)  { benchJournalReplay(b, exp.FormatJSONL) }
func BenchmarkJournalReplayBinary(b *testing.B) { benchJournalReplay(b, exp.FormatBinary) }

// benchJournalOpen measures reopening the full 100k-instance journal
// for appending per op: decode every record and rebuild the journal's
// done index. This is the resume path of tables -resume, Resume and
// the cluster coordinator's restart.
func benchJournalOpen(b *testing.B, format exp.Format) {
	path, n := buildBenchJournal(b, format)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := exp.OpenJournal(path)
		if err != nil {
			b.Fatal(err)
		}
		if got := j.DoneCount(); got != n {
			b.Fatalf("reopened %d of %d instances", got, n)
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJournalOpenJSONL(b *testing.B)  { benchJournalOpen(b, exp.FormatJSONL) }
func BenchmarkJournalOpenBinary(b *testing.B) { benchJournalOpen(b, exp.FormatBinary) }

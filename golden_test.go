package tightsched_test

import (
	"context"
	"reflect"
	"testing"

	"tightsched"
	"tightsched/internal/exp"
	"tightsched/internal/sim"
)

// goldenRuns pins the simulator's exact outcomes for fixed seeds, as
// produced by the seed revision BEFORE availability models existed (the
// hard-wired Markov sampler). The pluggable avail.Model path must
// reproduce them bit-for-bit: same heuristic rankings, same Result
// fields. Scenario: PaperScenario(m, 10, 2, 11), Cap 200,000.
var goldenRuns = []struct {
	m         int
	heuristic string
	seed      uint64
	makespan  int64
	completed int
	restarts  int64
	reconfigs int64
}{
	{5, "IE", 1, 667, 10, 18, 0},
	{5, "IE", 7, 337, 10, 9, 0},
	{5, "IE", 42, 464, 10, 12, 0},
	{5, "Y-IE", 1, 622, 10, 18, 12},
	{5, "Y-IE", 7, 432, 10, 13, 10},
	{5, "Y-IE", 42, 442, 10, 12, 11},
	{5, "P-IE", 1, 667, 10, 18, 13},
	{5, "P-IE", 7, 533, 10, 17, 13},
	{5, "P-IE", 42, 442, 10, 12, 10},
	{5, "IAY", 1, 795, 10, 15, 0},
	{5, "IAY", 7, 571, 10, 12, 0},
	{5, "IAY", 42, 582, 10, 9, 0},
	{5, "RANDOM", 1, 4400, 10, 303, 0},
	{5, "RANDOM", 7, 2628, 10, 193, 0},
	{5, "RANDOM", 42, 3204, 10, 221, 0},
	{5, "FASTEST", 1, 587, 10, 32, 0},
	{5, "FASTEST", 7, 553, 10, 25, 0},
	{5, "FASTEST", 42, 475, 10, 20, 0},
	{10, "IE", 1, 1413, 10, 48, 0},
	{10, "IE", 7, 2086, 10, 81, 0},
	{10, "IE", 42, 1756, 10, 63, 0},
	{10, "Y-IE", 1, 1518, 10, 30, 34},
	{10, "Y-IE", 7, 1146, 10, 28, 27},
	{10, "Y-IE", 42, 1023, 10, 24, 22},
	{10, "P-IE", 1, 1580, 10, 29, 33},
	{10, "P-IE", 7, 1195, 10, 28, 30},
	{10, "P-IE", 42, 1023, 10, 24, 21},
	{10, "IAY", 1, 1743, 10, 22, 0},
	{10, "IAY", 7, 1633, 10, 28, 0},
	{10, "IAY", 42, 1954, 10, 28, 0},
	{10, "RANDOM", 1, 53590, 10, 5380, 0},
	{10, "RANDOM", 7, 92985, 10, 9347, 0},
	{10, "RANDOM", 42, 51486, 10, 5148, 0},
	{10, "FASTEST", 1, 2799, 10, 210, 0},
	{10, "FASTEST", 7, 3743, 10, 328, 0},
	{10, "FASTEST", 42, 2194, 10, 178, 0},
}

// TestMarkovModelGoldenParity runs every golden case twice — through the
// default path (no model set) and through an explicit MarkovModel — and
// requires both to match the pinned pre-refactor results exactly.
func TestMarkovModelGoldenParity(t *testing.T) {
	ctx := context.Background()
	session := tightsched.NewSession(tightsched.WithCap(200_000))
	for _, g := range goldenRuns {
		for _, explicit := range []bool{false, true} {
			opts := []tightsched.Option{tightsched.WithSeed(g.seed)}
			if explicit {
				opts = append(opts, tightsched.WithModel(tightsched.MarkovModel{}))
			}
			sc := tightsched.PaperScenario(g.m, 10, 2, 11)
			res, err := session.Run(ctx, sc, g.heuristic, opts...)
			if err != nil {
				t.Fatalf("%s m=%d seed=%d: %v", g.heuristic, g.m, g.seed, err)
			}
			if res.Makespan != g.makespan || res.Completed != g.completed ||
				res.Restarts != g.restarts || res.Reconfigs != g.reconfigs || res.Failed {
				t.Errorf("%s m=%d seed=%d explicit=%v: got (mk=%d done=%d rst=%d rcf=%d failed=%v), want (%d %d %d %d false)",
					g.heuristic, g.m, g.seed, explicit,
					res.Makespan, res.Completed, res.Restarts, res.Reconfigs, res.Failed,
					g.makespan, g.completed, g.restarts, g.reconfigs)
			}
		}
	}
}

// TestEvaluationCacheGoldenParity runs golden cases with the analytic
// memo table disabled and requires results identical to the default
// (memoized) path: the cache must be bit-transparent at the level of
// whole simulations, not just individual statistics. (The pinned golden
// values themselves are checked against the default path by
// TestMarkovModelGoldenParity, so together these pin cache-on == cache-off
// == seed.)
func TestEvaluationCacheGoldenParity(t *testing.T) {
	ctx := context.Background()
	session := tightsched.NewSession(tightsched.WithCap(200_000))
	for _, g := range goldenRuns {
		sc := tightsched.PaperScenario(g.m, 10, 2, 11)
		base, err := session.Run(ctx, sc, g.heuristic, tightsched.WithSeed(g.seed))
		if err != nil {
			t.Fatalf("%s m=%d seed=%d: %v", g.heuristic, g.m, g.seed, err)
		}
		uncached, err := session.Run(ctx, sc, g.heuristic, tightsched.WithSeed(g.seed),
			tightsched.WithAnalytic(tightsched.AnalyticOptions{DisableMemo: true}))
		if err != nil {
			t.Fatalf("%s m=%d seed=%d uncached: %v", g.heuristic, g.m, g.seed, err)
		}
		if base != uncached {
			t.Errorf("%s m=%d seed=%d: cached %+v != uncached %+v", g.heuristic, g.m, g.seed, base, uncached)
		}
	}
}

// TestSpectralGoldenScenarios smoke-tests the opt-in spectral fast path
// on the golden scenarios: it is allowed to differ from the series within
// the evaluation precision (so no bit-parity), but every run must still
// complete all iterations under the cap.
func TestSpectralGoldenScenarios(t *testing.T) {
	session := tightsched.NewSession(tightsched.WithCap(200_000),
		tightsched.WithAnalytic(tightsched.AnalyticOptions{Spectral: true}))
	for _, g := range goldenRuns {
		if g.heuristic == "RANDOM" || g.heuristic == "FASTEST" {
			continue // no analytic evaluation involved
		}
		sc := tightsched.PaperScenario(g.m, 10, 2, 11)
		res, err := session.Run(context.Background(), sc, g.heuristic, tightsched.WithSeed(g.seed))
		if err != nil {
			t.Fatalf("%s m=%d seed=%d spectral: %v", g.heuristic, g.m, g.seed, err)
		}
		if res.Failed || res.Completed != g.completed {
			t.Errorf("%s m=%d seed=%d spectral: completed %d/%d (failed=%v)",
				g.heuristic, g.m, g.seed, res.Completed, g.completed, res.Failed)
		}
	}
}

// TestLeapGoldenParity renders Tables I, II and III under the slot
// oracle (sim.AdvanceSlot) and under the production core, selected by
// its public name AdvanceLeap, with the default Markov provider, and
// requires the formatted artifacts to be byte-identical — leaping
// between events is an execution strategy, not a model change. Grids
// are reduced; the heuristic sets are the tables' own.
func TestLeapGoldenParity(t *testing.T) {
	coreGoldenParity(t, func(s *tightsched.Sweep) { s.Advance = tightsched.AdvanceLeap })
}

// TestBatchGoldenParity renders the same reduced tables under the
// production core selected as AdvanceBatch on a single worker, so one
// worker's shared caches carry every trial group of a cell back to back,
// and requires byte-identical artifacts to the slot oracle — sharing
// availability walks and greedy builds across a cell's instances is an
// execution strategy, not a model change.
func TestBatchGoldenParity(t *testing.T) {
	coreGoldenParity(t, func(s *tightsched.Sweep) {
		s.Advance = tightsched.AdvanceBatch
		s.Workers = 1
	})
}

// coreGoldenParity renders reduced Tables I, II and III once under the
// slot oracle and once with core applied to the sweep, and fails on any
// byte of difference.
func coreGoldenParity(t *testing.T, core func(*tightsched.Sweep)) {
	t.Helper()
	baseSweep := func(m int) tightsched.Sweep {
		s := tightsched.QuickSweep(m)
		s.Ncoms = []int{10}
		s.Wmins = []int{2}
		s.Scenarios = 1
		s.Trials = 2
		s.Cap = 100_000
		return s
	}
	render := func(sweep tightsched.Sweep, table int) string {
		res, err := tightsched.NewSession().RunSweep(context.Background(), sweep)
		if err != nil {
			t.Fatalf("table %d advance=%v: %v", table, sweep.Advance, err)
		}
		if table == 3 {
			tables, err := res.TableIII(tightsched.ReferenceHeuristic)
			if err != nil {
				t.Fatalf("table 3 advance=%v: %v", sweep.Advance, err)
			}
			return tightsched.FormatTableIII(tables)
		}
		rows, err := res.Table(tightsched.ReferenceHeuristic)
		if err != nil {
			t.Fatalf("table %d advance=%v: %v", table, sweep.Advance, err)
		}
		return tightsched.FormatTable(rows)
	}
	cases := []struct {
		name  string
		table int
		sweep tightsched.Sweep
	}{
		{"TableI", 1, baseSweep(5)},
		{"TableII", 2, func() tightsched.Sweep {
			s := baseSweep(10)
			s.Heuristics = []string{"Y-IE", "P-IE", "E-IAY", "E-IY", "E-IP", "IAY", "IY", "IE"}
			return s
		}()},
		{"TableIII", 3, func() tightsched.Sweep {
			s := baseSweep(5)
			s.Heuristics = []string{"IE", "Y-IE", "RANDOM"}
			s.Models = []tightsched.AvailabilityModel{
				tightsched.MarkovModel{}, tightsched.NewSemiMarkovModel(0.6),
			}
			return s
		}()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			slotSweep := c.sweep
			slotSweep.Advance = sim.AdvanceSlot
			coreSweep := c.sweep
			core(&coreSweep)
			slotOut := render(slotSweep, c.table)
			coreOut := render(coreSweep, c.table)
			if slotOut != coreOut {
				t.Fatalf("%s diverges between engines\nslot:\n%s\ncore:\n%s", c.name, slotOut, coreOut)
			}
		})
	}
}

// TestQuickSweepDeterministicAcrossWorkers requires a QuickSweep-shaped
// campaign to produce identical instances regardless of the worker-pool
// size, serial included.
func TestQuickSweepDeterministicAcrossWorkers(t *testing.T) {
	base := tightsched.QuickSweep(5)
	base.Ncoms = []int{10}
	base.Wmins = []int{1, 2}
	base.Scenarios = 1
	base.Trials = 2
	base.Cap = 50_000
	base.Heuristics = []string{"IE", "Y-IE", "RANDOM"}

	var reference *exp.Result
	for _, workers := range []int{1, 4, 16} {
		sweep := base
		sweep.Workers = workers
		res, err := tightsched.NewSession().RunSweep(context.Background(), sweep)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if reference == nil {
			reference = res
			continue
		}
		if !reflect.DeepEqual(res.Instances, reference.Instances) {
			t.Fatalf("workers=%d: instances differ from workers=1", workers)
		}
	}
}

// goldenTableIV pins the quick online campaign's full Table IV artifact
// — the bytes cmd/tables -table 4 prints and the daemon serves at
// /tables/4. Any engine, policy, arrival-stream or aggregation change
// that shifts a digit must be deliberate and update this pin.
const goldenTableIV = "\n" +
	"Table IV — online grid: per-policy response, slowdown and deadline misses (heuristic: IE, model: diurnal)\n" +
	"\n" +
	"arrival    adm    preempt           apps  done  evict  miss%      resp   slowdn   makespan\n" +
	"poisson    edf    lowest-priority     24    24      2   12.5    426.96    10.67       2610\n" +
	"poisson    edf    none                24    24      0   16.7    425.58    11.00       2574\n" +
	"poisson    fcfs   lowest-priority     24    24      0   20.8    442.71    12.01       2504\n" +
	"poisson    fcfs   none                24    24      0   20.8    442.71    12.01       2504\n" +
	"poisson    sjf    lowest-priority     24    24      2   12.5    430.25    10.82       2514\n" +
	"poisson    sjf    none                24    24      0   16.7    425.58    11.00       2574\n" +
	"trace      edf    lowest-priority     20    20      5   15.0    516.30    20.09       3228\n" +
	"trace      edf    none                20    20      0   25.0    501.95    18.89       3228\n" +
	"trace      fcfs   lowest-priority     20    20      0   20.0    501.95    18.89       3228\n" +
	"trace      fcfs   none                20    20      0   20.0    501.95    18.89       3228\n" +
	"trace      sjf    lowest-priority     20    20      4   20.0    515.05    20.02       3228\n" +
	"trace      sjf    none                20    20      0   20.0    501.95    18.89       3228\n"

// TestQuickOnlineGoldenTableIV runs the quick Table IV campaign through
// the public facade and requires the rendered artifact byte-identical
// to the pin — the online layer's end-to-end determinism gate.
func TestQuickOnlineGoldenTableIV(t *testing.T) {
	if testing.Short() {
		t.Skip("quick online campaign takes a few seconds")
	}
	res, err := tightsched.NewSession().RunOnline(context.Background(), tightsched.QuickOnlineSweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Grid.Instances) != 24 {
		t.Fatalf("quick online campaign produced %d instances, want 24", len(res.Grid.Instances))
	}
	got, err := tightsched.RenderTableArtifact(res, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != goldenTableIV {
		t.Errorf("Table IV drifted from the golden pin:\n--- got ---\n%s\n--- want ---\n%s", got, goldenTableIV)
	}

	// The offline tables must refuse an online result, and vice versa.
	if _, err := tightsched.RenderTableArtifact(res, 1); err == nil {
		t.Error("Table I rendered an online grid campaign")
	}
}

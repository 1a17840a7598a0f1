package exp

import (
	"context"
	"strings"
	"testing"

	"tightsched/internal/sched"
	"tightsched/internal/sim"
)

// tinySweep is a minimal campaign for fast tests.
func tinySweep(heuristics []string) Sweep {
	return Sweep{
		M:          3,
		Ncoms:      []int{5},
		Wmins:      []int{1, 2},
		Scenarios:  2,
		Trials:     2,
		P:          8,
		Iterations: 2,
		Cap:        50_000,
		Seed:       99,
		Heuristics: heuristics,
	}
}

func TestSweepValidate(t *testing.T) {
	s := tinySweep(nil)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := s
	bad.M = 0
	if bad.Validate() == nil {
		t.Fatal("m=0 accepted")
	}
	bad = s
	bad.Wmins = nil
	if bad.Validate() == nil {
		t.Fatal("empty wmins accepted")
	}
	bad = s
	bad.Heuristics = []string{"NOPE"}
	if bad.Validate() == nil {
		t.Fatal("unknown heuristic accepted")
	}
	bad = s
	bad.Advance = sim.TimeAdvance(99)
	if bad.Validate() == nil {
		t.Fatal("unknown advance mode accepted")
	}
	bad = s
	bad.MaxLeap = -1
	if bad.Validate() == nil {
		t.Fatal("negative max leap accepted")
	}
	bad = s
	bad.Workers = -1
	if bad.Validate() == nil {
		t.Fatal("negative workers accepted")
	}
	badGrid := gridTestSweep()
	badGrid.Workers = -1
	if badGrid.Validate() == nil {
		t.Fatal("negative grid workers accepted")
	}
	ok := s
	ok.Advance = sim.AdvanceBatch
	if err := ok.Validate(); err != nil {
		t.Fatalf("batch advance rejected: %v", err)
	}
}

func TestPaperAndQuickSweeps(t *testing.T) {
	p := PaperSweep(5)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.InstanceCount() != 3*10*10*10 {
		t.Fatalf("paper sweep has %d instances, want 3000", p.InstanceCount())
	}
	q := QuickSweep(10)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if q.InstanceCount() >= p.InstanceCount() {
		t.Fatal("quick sweep not smaller than paper sweep")
	}
	if q.M != 10 {
		t.Fatal("quick sweep m")
	}
}

func TestRunSmallSweep(t *testing.T) {
	s := tinySweep([]string{"IE", "RANDOM", "Y-IE"})
	var lastDone, total int
	res, err := Run(context.Background(), s, RunOptions{Progress: func(done, tot int) { lastDone, total = done, tot }})
	if err != nil {
		t.Fatal(err)
	}
	want := s.InstanceCount() * 3
	if len(res.Instances) != want {
		t.Fatalf("got %d instance results, want %d", len(res.Instances), want)
	}
	if lastDone != want || total != want {
		t.Fatalf("progress reported %d/%d, want %d/%d", lastDone, total, want, want)
	}
	for _, inst := range res.Instances {
		if inst.Makespan <= 0 {
			t.Fatalf("nonpositive makespan: %+v", inst)
		}
		if inst.Failed && inst.Makespan != s.Cap {
			t.Fatalf("failed instance with makespan %d != cap", inst.Makespan)
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	s := tinySweep([]string{"IE", "Y-IE"})
	s.Workers = 1
	a, err := Run(context.Background(), s, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Workers = 4
	b, err := Run(context.Background(), s, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Instances) != len(b.Instances) {
		t.Fatal("result counts differ")
	}
	for i := range a.Instances {
		if a.Instances[i] != b.Instances[i] {
			t.Fatalf("instance %d differs across worker counts:\n%+v\n%+v",
				i, a.Instances[i], b.Instances[i])
		}
	}
}

func TestTableAggregation(t *testing.T) {
	// Hand-built result: 1 point, 2 trials, two heuristics.
	pt := Point{Ncom: 5, Wmin: 1, Scenario: 0}
	res := &Result{
		Sweep: Sweep{Wmins: []int{1}},
		Instances: []InstanceResult{
			{Point: pt, Trial: 0, Heuristic: "IE", Makespan: 100},
			{Point: pt, Trial: 1, Heuristic: "IE", Makespan: 200},
			{Point: pt, Trial: 0, Heuristic: "X-RAY", Makespan: 120},
			{Point: pt, Trial: 1, Heuristic: "X-RAY", Makespan: 130},
		},
	}
	rows, err := res.Table("IE")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]TableRow{}
	for _, r := range rows {
		byName[r.Heuristic] = r
	}
	ie := byName["IE"]
	if ie.Diff != 0 || ie.Wins != 100 || ie.Wins30 != 100 || ie.Fails != 0 {
		t.Fatalf("reference row: %+v", ie)
	}
	x := byName["X-RAY"]
	// Mean makespans: X = 125, IE = 150 -> diff = (125-150)/125 = -20%.
	if x.Diff > -19.9 || x.Diff < -20.1 {
		t.Fatalf("X-RAY diff = %v, want -20", x.Diff)
	}
	// Trial 0: 120 > 100 (loss, and above 1.3*100 = 130? no, 120 <= 130
	// so wins30). Trial 1: 130 <= 200 (win).
	if x.Wins != 50 {
		t.Fatalf("X-RAY wins = %v, want 50", x.Wins)
	}
	if x.Wins30 != 100 {
		t.Fatalf("X-RAY wins30 = %v, want 100", x.Wins30)
	}
	// Rows sorted by diff ascending: X-RAY first.
	if rows[0].Heuristic != "X-RAY" {
		t.Fatalf("row order: %+v", rows)
	}
}

func TestTableFailsExcludedFromDiff(t *testing.T) {
	pt := Point{Ncom: 5, Wmin: 1, Scenario: 0}
	res := &Result{
		Sweep: Sweep{Wmins: []int{1}},
		Instances: []InstanceResult{
			{Point: pt, Trial: 0, Heuristic: "IE", Makespan: 100},
			{Point: pt, Trial: 1, Heuristic: "IE", Makespan: 100},
			{Point: pt, Trial: 0, Heuristic: "H", Makespan: 100},
			{Point: pt, Trial: 1, Heuristic: "H", Makespan: 1000000, Failed: true},
		},
	}
	rows, err := res.Table("IE")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Heuristic == "H" {
			if r.Fails != 1 {
				t.Fatalf("H fails = %d", r.Fails)
			}
			// Succeeding trial mean = 100 = reference -> diff 0.
			if r.Diff != 0 {
				t.Fatalf("H diff = %v, want 0 (failed trial excluded)", r.Diff)
			}
			// The failed trial still counts as a loss.
			if r.Wins != 50 {
				t.Fatalf("H wins = %v, want 50", r.Wins)
			}
		}
	}
}

func TestTableUnknownReference(t *testing.T) {
	res := &Result{Instances: []InstanceResult{{Heuristic: "IE", Makespan: 1}}}
	if _, err := res.Table("MISSING"); err == nil {
		t.Fatal("unknown reference accepted")
	}
}

func TestFormatTable(t *testing.T) {
	out := FormatTable([]TableRow{{Heuristic: "Y-IE", Fails: 2, Diff: -11.82, Wins: 72.58, Wins30: 92.09, Stdv: 0.42}})
	if !strings.Contains(out, "Y-IE") || !strings.Contains(out, "-11.82") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestFigure2Shape(t *testing.T) {
	s := tinySweep([]string{"IE", "RANDOM"})
	res, err := Run(context.Background(), s, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	series, err := res.Figure2("IE")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"IE", "RANDOM"} {
		pts := series[name]
		if len(pts) != len(s.Wmins) {
			t.Fatalf("%s has %d points, want %d", name, len(pts), len(s.Wmins))
		}
		for i, pt := range pts {
			if pt.Wmin != s.Wmins[i] {
				t.Fatalf("%s point %d wmin %d", name, i, pt.Wmin)
			}
		}
	}
	// IE's own curve is identically zero.
	for _, pt := range series["IE"] {
		if pt.Diff != 0 {
			t.Fatalf("reference curve not zero: %+v", pt)
		}
	}
	out := FormatFigure2(series, []string{"IE", "RANDOM"})
	if !strings.Contains(out, "wmin") || !strings.Contains(out, "RANDOM") {
		t.Fatalf("figure format:\n%s", out)
	}
	// Nil name list renders all heuristics.
	if all := FormatFigure2(series, nil); !strings.Contains(all, "IE") {
		t.Fatalf("figure format nil names:\n%s", all)
	}
}

func TestRefFailureDominance(t *testing.T) {
	pt := Point{Ncom: 5, Wmin: 1, Scenario: 0}
	res := &Result{
		Instances: []InstanceResult{
			{Point: pt, Trial: 0, Heuristic: "IE", Makespan: 10, Failed: true},
			{Point: pt, Trial: 0, Heuristic: "A", Makespan: 10, Failed: true},
			{Point: pt, Trial: 0, Heuristic: "B", Makespan: 10, Failed: false},
		},
	}
	if got := res.RefFailureDominance("IE"); got != 1 {
		t.Fatalf("dominance counterexamples = %d, want 1", got)
	}
	res.Instances[2].Failed = true
	if got := res.RefFailureDominance("IE"); got != 0 {
		t.Fatalf("dominance counterexamples = %d, want 0", got)
	}
}

func TestScenarioPlatformDeterministic(t *testing.T) {
	s := tinySweep(nil)
	a := s.scenarioPlatform(Point{5, 1, 0})
	b := s.scenarioPlatform(Point{5, 1, 0})
	for q := range a.Procs {
		if a.Procs[q] != b.Procs[q] {
			t.Fatal("platform generation not deterministic")
		}
	}
	c := s.scenarioPlatform(Point{5, 1, 1})
	same := true
	for q := range a.Procs {
		if a.Procs[q] != c.Procs[q] {
			same = false
		}
	}
	if same {
		t.Fatal("different scenarios produced identical platforms")
	}
}

func TestTrialSeedsDiffer(t *testing.T) {
	s := tinySweep(nil)
	pt := Point{5, 1, 0}
	if s.TrialSeed(pt, 0) == s.TrialSeed(pt, 1) {
		t.Fatal("trial seeds collide")
	}
	if s.TrialSeed(pt, 0) != s.TrialSeed(pt, 0) {
		t.Fatal("trial seed not deterministic")
	}
}

func TestHeuristicsDefault(t *testing.T) {
	s := tinySweep(nil)
	if got := len(s.heuristics()); got != len(sched.Names()) {
		t.Fatalf("default heuristics = %d, want all %d", got, len(sched.Names()))
	}
}

// TestBatchSweepMatchesSequential: a default (production-core) campaign
// yields exactly the slot oracle's instances in the same order, and
// every PointDone event of the default campaign carries the cell's
// sharing stats.
func TestBatchSweepMatchesSequential(t *testing.T) {
	base := tinySweep([]string{"IE", "Y-IE", "IP"})
	oracle := base
	oracle.Advance = sim.AdvanceSlot
	seq, err := Run(context.Background(), oracle, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	batch := base // default Advance: the production core
	var insts []InstanceResult
	var total CacheStats
	points, withCache := 0, 0
	for ev, err := range Stream(context.Background(), batch, RunOptions{}) {
		if err != nil {
			t.Fatal(err)
		}
		switch e := ev.(type) {
		case InstanceDone:
			insts = append(insts, e.Instance)
		case PointDone:
			points++
			if e.Cache != nil {
				withCache++
				if e.Cache.MemoHits+e.Cache.MemoMisses == 0 {
					t.Fatalf("point %+v: empty memo stats %+v", e.Point, *e.Cache)
				}
				total.Add(*e.Cache)
			}
		}
	}
	if len(insts) != len(seq.Instances) {
		t.Fatalf("batch streamed %d instances, slot %d", len(insts), len(seq.Instances))
	}
	// Events arrive in completion order; compare in canonical order, as
	// Run does.
	sortInstances(insts)
	for i := range insts {
		if insts[i] != seq.Instances[i] {
			t.Fatalf("instance %d: batch %+v != slot %+v", i, insts[i], seq.Instances[i])
		}
	}
	if points == 0 || withCache != points {
		t.Fatalf("cache stats on %d of %d PointDone events", withCache, points)
	}
	// The greedy-build replay counters ride the same events and sum.
	if total.CandidatesScored == 0 || total.CandidatesReused == 0 || total.DecisionReplays > total.DecisionMisses {
		t.Fatalf("campaign build replay traffic: %+v", total)
	}
}

// TestTrialSeedExported: the exported derivation matches what runCell
// uses — stable across the sweep's own parameters.
func TestTrialSeedExported(t *testing.T) {
	s := tinySweep(nil)
	pt := Point{Ncom: s.Ncoms[0], Wmin: s.Wmins[0], Scenario: 1}
	if s.TrialSeed(pt, 0) == s.TrialSeed(pt, 1) {
		t.Fatal("distinct trials share a seed")
	}
	if TrialStream(1, 2) == nil {
		t.Fatal("nil trial stream")
	}
}

package tightsched_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"tightsched"
	"tightsched/internal/app"
	"tightsched/internal/markov"
	"tightsched/internal/platform"
	"tightsched/internal/sched"
)

func TestFacadeRun(t *testing.T) {
	ctx := context.Background()
	session := tightsched.NewSession(tightsched.WithCap(100_000))

	// PaperScenario draws the Section VII.A shape.
	sc := tightsched.PaperScenario(5, 10, 3, 42)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if sc.Platform.Size() != 20 || sc.Platform.Ncom != 10 {
		t.Fatalf("platform: %d procs, ncom %d", sc.Platform.Size(), sc.Platform.Ncom)
	}
	if sc.App.Tasks != 5 || sc.App.Tprog != 15 || sc.App.Tdata != 3 || sc.App.Iterations != 10 {
		t.Fatalf("application: %+v", sc.App)
	}

	// The recorded trace covers the whole run, one step per slot.
	for _, c := range []struct {
		sc        tightsched.Scenario
		heuristic string
		seed      uint64
	}{
		{tightsched.PaperScenario(4, 10, 1, 5), "Y-IE", 2},
		{tightsched.PaperScenario(3, 10, 1, 7), "Y-IE", 5},
	} {
		rec := &tightsched.Recorder{}
		res, err := session.Run(ctx, c.sc, c.heuristic, tightsched.WithSeed(c.seed), tightsched.WithRecorder(rec))
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed || res.Completed != 10 {
			t.Fatalf("run: %+v", res)
		}
		if rec.Len() == 0 || int64(rec.Len()) != res.Makespan {
			t.Fatalf("trace length %d vs makespan %d", rec.Len(), res.Makespan)
		}
	}
}

func TestFacadeHeuristics(t *testing.T) {
	paper := tightsched.PaperHeuristics()
	if len(paper) != 17 { // also Compare's default set
		t.Fatalf("%d paper heuristics", len(paper))
	}
	names := tightsched.Heuristics()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Heuristics() not sorted: %v", names)
	}
	registered := make(map[string]bool, len(names))
	for _, n := range names {
		registered[n] = true
	}
	for _, n := range paper {
		if !registered[n] {
			t.Fatalf("paper heuristic %q missing from registry listing %v", n, names)
		}
	}
	// The listings are defensive copies: scribbling on one must not leak
	// into the registry.
	names[0] = "SCRIBBLED"
	paper[0] = "SCRIBBLED"
	if tightsched.Heuristics()[0] == "SCRIBBLED" || tightsched.PaperHeuristics()[0] == "SCRIBBLED" {
		t.Fatal("heuristic name listing aliases registry state")
	}
}

func TestFacadeStates(t *testing.T) {
	if tightsched.Up != markov.Up || tightsched.Down != markov.Down || tightsched.Reclaimed != markov.Reclaimed {
		t.Fatal("state aliases broken")
	}
}

func TestFacadeCustomScenario(t *testing.T) {
	ctx := context.Background()
	session := tightsched.NewSession(tightsched.WithCap(100_000))
	avail := tightsched.AvailabilityMatrix{
		{0.95, 0.03, 0.02},
		{0.5, 0.48, 0.02},
		{0.5, 0.25, 0.25},
	}
	procs := make([]tightsched.Processor, 6)
	for i := range procs {
		procs[i] = tightsched.Processor{Speed: 1 + i, Capacity: 4, Avail: avail}
	}
	sc := tightsched.Scenario{
		Platform: &tightsched.Platform{Procs: procs, Ncom: 3},
		App:      tightsched.Application{Tasks: 4, Tprog: 3, Tdata: 1, Iterations: 3},
	}
	res, err := session.Run(ctx, sc, "E-IAY", tightsched.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3 {
		t.Fatalf("completed %d", res.Completed)
	}

	// A custom heuristic instance runs in place of a named one.
	allUp := tightsched.Scenario{
		Platform: platform.Homogeneous(3, 1, platform.UnboundedCapacity, 3, markov.AlwaysUp()),
		App:      tightsched.Application{Tasks: 3, Tprog: 1, Tdata: 1, Iterations: 2},
	}
	res, err = session.Run(ctx, allUp, "", tightsched.WithCustomHeuristic(&everythingOnAll{}), tightsched.WithCap(1000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed || res.Heuristic != "ALL" {
		t.Fatalf("custom run: %+v", res)
	}

	// Invalid scenarios and unknown heuristics are rejected.
	badApp := tightsched.PaperScenario(5, 10, 1, 1)
	badApp.App.Tasks = 0
	tiny := tightsched.Scenario{
		Platform: platform.Homogeneous(1, 1, 1, 1, markov.Uniform(0.9)),
		App:      tightsched.Application{Tasks: 5, Iterations: 1},
	}
	for name, bad := range map[string]tightsched.Scenario{"empty": {}, "invalid app": badApp, "under-capacity": tiny} {
		if bad.Validate() == nil {
			t.Fatalf("%s scenario validated", name)
		}
		if _, err := session.Run(ctx, bad, "IE"); err == nil {
			t.Fatalf("%s scenario accepted by Run", name)
		}
	}
	if _, err := session.Run(ctx, allUp, "NOPE"); err == nil {
		t.Fatal("unknown heuristic accepted")
	}
}

// everythingOnAll enrolls every processor with one task.
type everythingOnAll struct{}

func (e *everythingOnAll) Name() string { return "ALL" }

func (e *everythingOnAll) Decide(v *sched.View) app.Assignment {
	if v.Current != nil {
		return v.Current
	}
	asg := make(app.Assignment, len(v.States))
	for q := range asg {
		if v.States[q] != markov.Up {
			return nil
		}
		asg[q] = 1
	}
	return asg
}

func TestFacadeEstimateAndCompare(t *testing.T) {
	ctx := context.Background()
	session := tightsched.NewSession()
	for _, c := range []struct {
		sc      tightsched.Scenario
		workers []int
		w       int
	}{
		{tightsched.PaperScenario(3, 10, 1, 8), []int{0, 1}, 4},
		{tightsched.PaperScenario(5, 10, 1, 21), []int{0, 1, 2}, 5},
	} {
		est, err := session.Estimate(ctx, c.sc, c.workers, c.w)
		if err != nil {
			t.Fatal(err)
		}
		if est.Pplus <= 0 || est.Pplus >= 1 {
			t.Fatalf("estimate: %+v", est)
		}
		if est.SuccessProb <= 0 || est.SuccessProb > est.Pplus {
			t.Fatalf("SuccessProb = %v", est.SuccessProb)
		}
		if est.ExpectedDuration < float64(c.w) {
			t.Fatalf("ExpectedDuration = %v below workload %d", est.ExpectedDuration, c.w)
		}
	}
	sc := tightsched.PaperScenario(5, 10, 1, 21)
	for _, bad := range []struct {
		workers []int
		w       int
	}{{nil, 5}, {[]int{0}, 0}, {[]int{99}, 5}, {[]int{-1}, 5}} {
		if _, err := session.Estimate(ctx, sc, bad.workers, bad.w); err == nil {
			t.Fatalf("Estimate accepted workers %v, w %d", bad.workers, bad.w)
		}
	}
	if _, err := session.Estimate(ctx, tightsched.Scenario{}, []int{0}, 1); err == nil {
		t.Fatal("Estimate accepted an invalid scenario")
	}

	for _, c := range []struct {
		sc         tightsched.Scenario
		heuristics []string
		trials     int
		seed       uint64
		cap        int64
	}{
		{tightsched.PaperScenario(3, 10, 1, 8), []string{"IE", "Y-IE"}, 2, 3, 50_000},
		{tightsched.PaperScenario(3, 10, 1, 9), []string{"IE", "RANDOM"}, 3, 11, 100_000},
		{tightsched.PaperScenario(2, 20, 1, 13), nil, 1, 3, 50_000}, // the paper's 17
	} {
		opts := []tightsched.Option{tightsched.WithSeed(c.seed), tightsched.WithCap(c.cap)}
		sums, err := session.Compare(ctx, c.sc, c.heuristics, c.trials, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want := c.heuristics
		if want == nil {
			want = tightsched.PaperHeuristics()
		}
		if len(sums) != len(want) {
			t.Fatalf("got %d summaries, want %d", len(sums), len(want))
		}
		for i, s := range sums {
			if s.Heuristic != want[i] || s.Fails+s.Makespan.N != c.trials {
				t.Fatalf("summary %d: %+v (want %s over %d trials)", i, s, want[i], c.trials)
			}
		}
		again, err := session.Compare(ctx, c.sc, c.heuristics, c.trials, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sums {
			if sums[i] != again[i] {
				t.Fatalf("Compare not deterministic: %+v != %+v", sums[i], again[i])
			}
		}
	}
	sc = tightsched.PaperScenario(3, 10, 1, 9)
	if _, err := session.Compare(ctx, sc, nil, 0); err == nil {
		t.Fatal("0 trials accepted")
	}
	if _, err := session.Compare(ctx, tightsched.Scenario{}, nil, 1); err == nil {
		t.Fatal("invalid scenario accepted")
	}
	if _, err := session.Compare(ctx, sc, []string{"NOPE"}, 1, tightsched.WithCap(1000)); err == nil {
		t.Fatal("unknown heuristic accepted")
	}
}

func TestFacadeSweep(t *testing.T) {
	sweep := tightsched.QuickSweep(5)
	sweep.Wmins = []int{1}
	sweep.Ncoms = []int{10}
	sweep.Scenarios = 1
	sweep.Trials = 1
	sweep.Heuristics = []string{"IE", "RANDOM"}
	sweep.Cap = 50000
	res, err := tightsched.NewSession().RunSweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Table("IE")
	if err != nil {
		t.Fatal(err)
	}
	out := tightsched.FormatTable(rows)
	if !strings.Contains(out, "RANDOM") {
		t.Fatalf("table:\n%s", out)
	}
}

func TestFacadeDefaultCap(t *testing.T) {
	if tightsched.DefaultCap != 1_000_000 {
		t.Fatalf("default cap %d", tightsched.DefaultCap)
	}
}

func TestFacadeAvailabilityModels(t *testing.T) {
	names := tightsched.AvailabilityModels()
	if len(names) < 3 {
		t.Fatalf("model names %v", names)
	}
	for _, name := range names {
		m, err := tightsched.ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != name {
			t.Fatalf("ModelByName(%q).Name() = %q", name, m.Name())
		}
	}
	if _, err := tightsched.ModelByName("nope"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// TestFacadeNonMarkovRun drives a semi-Markov ground truth through the
// façade: WithModel selects the model, the heuristics believe its
// fitted matrices, and the run still completes.
func TestFacadeNonMarkovRun(t *testing.T) {
	ctx := context.Background()
	session := tightsched.NewSession(tightsched.WithSeed(2), tightsched.WithCap(200_000))
	sc := tightsched.PaperScenario(4, 10, 1, 5)
	model := tightsched.NewSemiMarkovModel(0.8)
	model.CalibrationSlots = 2_000
	res, err := session.Run(ctx, sc, "Y-IE", tightsched.WithModel(model))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed || res.Completed != 10 {
		t.Fatalf("non-Markov run: %+v", res)
	}
	// The same seed under Markov ground truth is a different realization.
	ref, err := session.Run(ctx, sc, "Y-IE")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Makespan == res.Makespan && ref.Restarts == res.Restarts {
		t.Fatalf("semi-Markov realization identical to Markov: %+v", res)
	}
}

// TestFacadeSweepNonMarkov is the acceptance path at façade level: a
// SemiMarkovModel campaign runs through RunSweep and renders via
// FormatTable.
func TestFacadeSweepNonMarkov(t *testing.T) {
	sweep := tightsched.QuickSweep(5)
	sweep.Wmins = []int{1}
	sweep.Ncoms = []int{10}
	sweep.Scenarios = 1
	sweep.Trials = 1
	sweep.Heuristics = []string{"IE", "RANDOM"}
	sweep.Cap = 50000
	model := tightsched.NewSemiMarkovModel(0.6)
	model.CalibrationSlots = 2_000
	sweep.Models = []tightsched.AvailabilityModel{model}
	res, err := tightsched.NewSession().RunSweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Table("IE")
	if err != nil {
		t.Fatal(err)
	}
	out := tightsched.FormatTable(rows)
	if !strings.Contains(out, "RANDOM") {
		t.Fatalf("table:\n%s", out)
	}
	for _, inst := range res.Instances {
		if inst.Model != "semimarkov" {
			t.Fatalf("instance model %q", inst.Model)
		}
	}
}

// TestFacadeJournaledShardedSweep drives the campaign-execution surface
// end-to-end through the façade: shard a small campaign into two
// journaled jobs, merge the journals, and resume one journal standalone.
func TestFacadeJournaledShardedSweep(t *testing.T) {
	sweep := tightsched.QuickSweep(5)
	sweep.Wmins = []int{1, 2}
	sweep.Ncoms = []int{10}
	sweep.Scenarios = 1
	sweep.Trials = 1
	sweep.Heuristics = []string{"IE", "RANDOM"}
	sweep.Cap = 50000
	ctx := context.Background()
	session := tightsched.NewSession()

	full, err := session.RunSweep(ctx, sweep)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	paths := []string{dir + "/shard0.journal", dir + "/shard1.journal"}
	for i, path := range paths {
		shard, err := tightsched.ParseSweepShard(fmt.Sprintf("%d/2", i))
		if err != nil {
			t.Fatal(err)
		}
		j, err := tightsched.CreateSweepJournal(path, sweep, shard)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := session.RunSweep(ctx, sweep, tightsched.WithJournal(j), tightsched.WithShard(shard)); err != nil {
			t.Fatal(err)
		}
		j.Close()
	}

	merged, err := tightsched.MergeSweepJournals(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Instances) != len(full.Instances) {
		t.Fatalf("merged %d instances, want %d", len(merged.Instances), len(full.Instances))
	}
	for i := range merged.Instances {
		if merged.Instances[i] != full.Instances[i] {
			t.Fatalf("instance %d differs after façade shard+merge", i)
		}
	}

	// A complete shard journal resumes as pure replay.
	res, err := session.ResumeSweep(ctx, paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances)*2 != len(full.Instances) {
		t.Fatalf("resumed shard has %d instances, want %d", len(res.Instances), len(full.Instances)/2)
	}
}

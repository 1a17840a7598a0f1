// Package core_test keeps the scenario, run, compare and estimate checks
// that once covered the layer under the root façade. That layer now lives in
// tightsched.Session, so every case here drives the public Session API.
package core_test

import (
	"context"
	"testing"

	"tightsched"
	"tightsched/internal/app"
	"tightsched/internal/markov"
	"tightsched/internal/platform"
	"tightsched/internal/sched"
)

func TestPaperScenarioShape(t *testing.T) {
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
}

func TestScenarioValidate(t *testing.T) {
	if (tightsched.Scenario{}).Validate() == nil {
		t.Fatal("empty scenario accepted")
	}
	sc := tightsched.PaperScenario(5, 10, 1, 1)
	sc.App.Tasks = 0
	if sc.Validate() == nil {
		t.Fatal("invalid app accepted")
	}
	tiny := tightsched.Scenario{
		Platform: platform.Homogeneous(1, 1, 1, 1, markov.Uniform(0.9)),
		App:      app.Application{Tasks: 5, Iterations: 1},
	}
	if tiny.Validate() == nil {
		t.Fatal("under-capacity scenario accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	sc := tightsched.PaperScenario(3, 10, 1, 7)
	rec := &tightsched.Recorder{}
	res, err := tightsched.NewSession(tightsched.WithSeed(5), tightsched.WithCap(100000)).
		Run(context.Background(), sc, "Y-IE", tightsched.WithRecorder(rec))
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

func TestRunRejectsInvalid(t *testing.T) {
	s := tightsched.NewSession()
	ctx := context.Background()
	if _, err := s.Run(ctx, tightsched.Scenario{}, "IE"); err == nil {
		t.Fatal("invalid scenario accepted")
	}
	sc := tightsched.PaperScenario(3, 10, 1, 7)
	if _, err := s.Run(ctx, sc, "NOPE"); err == nil {
		t.Fatal("unknown heuristic accepted")
	}
}

func TestHeuristicsList(t *testing.T) {
	if len(tightsched.PaperHeuristics()) != 17 {
		t.Fatalf("got %d heuristics", len(tightsched.PaperHeuristics()))
	}
}

func TestCompare(t *testing.T) {
	sc := tightsched.PaperScenario(3, 10, 1, 9)
	s := tightsched.NewSession(tightsched.WithSeed(11), tightsched.WithCap(100000))
	ctx := context.Background()
	sums, err := s.Compare(ctx, sc, []string{"IE", "RANDOM"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 || sums[0].Heuristic != "IE" || sums[1].Heuristic != "RANDOM" {
		t.Fatalf("summaries: %+v", sums)
	}
	for _, sum := range sums {
		if sum.Fails+sum.Makespan.N != 3 {
			t.Fatalf("%s: fails %d + makespans %d != trials", sum.Heuristic, sum.Fails, sum.Makespan.N)
		}
	}
	// Deterministic.
	again, err := s.Compare(ctx, sc, []string{"IE", "RANDOM"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sums {
		if sums[i].Makespan.Mean != again[i].Makespan.Mean {
			t.Fatal("Compare not deterministic")
		}
	}
}

func TestCompareValidation(t *testing.T) {
	sc := tightsched.PaperScenario(3, 10, 1, 9)
	s := tightsched.NewSession(tightsched.WithSeed(1))
	ctx := context.Background()
	if _, err := s.Compare(ctx, sc, nil, 0); err == nil {
		t.Fatal("0 trials accepted")
	}
	if _, err := s.Compare(ctx, tightsched.Scenario{}, nil, 1); err == nil {
		t.Fatal("invalid scenario accepted")
	}
	if _, err := s.Compare(ctx, sc, []string{"NOPE"}, 1, tightsched.WithCap(1000)); err == nil {
		t.Fatal("unknown heuristic accepted")
	}
}

func TestCompareDefaultsToAllHeuristics(t *testing.T) {
	sc := tightsched.PaperScenario(2, 20, 1, 13)
	sums, err := tightsched.NewSession(tightsched.WithSeed(3), tightsched.WithCap(50000)).
		Compare(context.Background(), sc, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 17 {
		t.Fatalf("got %d summaries, want 17", len(sums))
	}
}

func TestEstimate(t *testing.T) {
	sc := tightsched.PaperScenario(5, 10, 1, 21)
	est, err := tightsched.NewSession().Estimate(context.Background(), sc, []int{0, 1, 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if est.Pplus <= 0 || est.Pplus >= 1 {
		t.Fatalf("Pplus = %v", est.Pplus)
	}
	if est.SuccessProb <= 0 || est.SuccessProb > est.Pplus {
		t.Fatalf("SuccessProb = %v", est.SuccessProb)
	}
	if est.ExpectedDuration < 5 {
		t.Fatalf("ExpectedDuration = %v below workload", est.ExpectedDuration)
	}
}

func TestEstimateValidation(t *testing.T) {
	sc := tightsched.PaperScenario(5, 10, 1, 21)
	s := tightsched.NewSession()
	ctx := context.Background()
	cases := []struct {
		workers []int
		w       int
	}{
		{nil, 5},
		{[]int{0}, 0},
		{[]int{99}, 5},
		{[]int{-1}, 5},
	}
	for i, c := range cases {
		if _, err := s.Estimate(ctx, sc, c.workers, c.w); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	if _, err := s.Estimate(ctx, tightsched.Scenario{}, []int{0}, 1); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

func TestRunWithCustomHeuristic(t *testing.T) {
	sc := tightsched.Scenario{
		Platform: platform.Homogeneous(3, 1, platform.UnboundedCapacity, 3, markov.AlwaysUp()),
		App:      app.Application{Tasks: 3, Tprog: 1, Tdata: 1, Iterations: 2},
	}
	res, err := tightsched.NewSession(tightsched.WithCap(1000)).
		Run(context.Background(), sc, "", tightsched.WithCustomHeuristic(&everythingOnAll{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed || res.Heuristic != "ALL" {
		t.Fatalf("custom run: %+v", res)
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

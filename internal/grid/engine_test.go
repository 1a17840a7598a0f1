package grid

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"tightsched/internal/markov"
	"tightsched/internal/platform"
)

// countingTelemetry records gauge deltas and the miss counter.
type countingTelemetry struct {
	queued, running int
	misses          int
}

func (c *countingTelemetry) GridQueued(d int)  { c.queued += d }
func (c *countingTelemetry) GridRunning(d int) { c.running += d }
func (c *countingTelemetry) GridDeadlineMiss() { c.misses++ }

// testScenario builds a stable 4-processor grid: very reliable hosts so
// the engine-level properties (admission, preemption, reporting) are
// not drowned in churn.
func testScenario(arrivals []Arrival, admission, preemption string) Scenario {
	adm, err := Admission(admission)
	if err != nil {
		panic(err)
	}
	pre, err := Preemption(preemption)
	if err != nil {
		panic(err)
	}
	return Scenario{
		Platform:   platform.Homogeneous(4, 1, platform.UnboundedCapacity, 6, markov.PerState(0.999, 0.999, 0.999)),
		Shape:      Shape{M: 5, Iterations: 5, AppProcs: 2, Ncom: 6},
		Horizon:    5_000,
		Heuristic:  "IE",
		Seed:       11,
		Arrivals:   arrivals,
		Admission:  adm,
		Preemption: pre,
	}
}

// TestSimulateCompletesAndReports: two applications on a platform with
// room for both run to completion; reports come back in arrival order
// with consistent response, slowdown and makespan.
func TestSimulateCompletesAndReports(t *testing.T) {
	sc := testScenario([]Arrival{
		{T: 0, App: "a0", Wmin: 1, Deadline: 4_000},
		{T: 10, App: "a1", Wmin: 1},
	}, "fcfs", "none")
	tele := &countingTelemetry{}
	sc.Telemetry = tele
	rep, err := Simulate(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Apps) != 2 {
		t.Fatalf("reported %d apps, want 2", len(rep.Apps))
	}
	var makespan int64
	for i, a := range rep.Apps {
		if a.App != sc.Arrivals[i].App {
			t.Errorf("report %d is %q, want arrival order", i, a.App)
		}
		if !a.Completed {
			t.Errorf("%s did not complete on a near-reliable platform", a.App)
		}
		if a.Missed {
			t.Errorf("%s missed a %d-slot deadline despite completing at %d", a.App, a.Deadline, a.Completion)
		}
		if a.Response != a.Completion-a.Arrival {
			t.Errorf("%s response %d != completion %d - arrival %d", a.App, a.Response, a.Completion, a.Arrival)
		}
		if want := float64(a.Response) / float64(a.Bound); a.Slowdown != want {
			t.Errorf("%s slowdown %v, want response/bound %v", a.App, a.Slowdown, want)
		}
		if a.Slowdown < 1 {
			t.Errorf("%s slowdown %v below 1; bound not a lower bound", a.App, a.Slowdown)
		}
		if a.Completion > makespan {
			makespan = a.Completion
		}
	}
	if rep.Makespan != makespan {
		t.Errorf("makespan %d, want last completion %d", rep.Makespan, makespan)
	}
	// Both apps found a free block immediately: admitted at arrival.
	if rep.Apps[0].Admit != 0 || rep.Apps[1].Admit != 10 {
		t.Errorf("admit slots = %d, %d; want 0, 10 (no queueing)", rep.Apps[0].Admit, rep.Apps[1].Admit)
	}
	if tele.queued != 0 || tele.running != 0 {
		t.Errorf("telemetry gauges did not drain: queued %d running %d", tele.queued, tele.running)
	}
	if tele.misses != 0 {
		t.Errorf("telemetry counted %d misses, report shows none", tele.misses)
	}
}

// TestSimulatePreemptionRequeues: with one block and SJF admission, a
// light application arriving behind a heavy one evicts it under
// lowest-priority preemption; the victim restarts and still finishes.
// Under "none" the same scenario leaves the heavy app untouched.
func TestSimulatePreemptionRequeues(t *testing.T) {
	arrivals := []Arrival{
		{T: 0, App: "heavy", Wmin: 3},
		{T: 20, App: "light", Wmin: 1, Deadline: 2_000},
	}
	sc := testScenario(arrivals, "sjf", "lowest-priority")
	sc.Shape.AppProcs = 4 // one block: the whole platform
	tele := &countingTelemetry{}
	sc.Telemetry = tele
	rep, err := Simulate(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	heavy, light := rep.Apps[0], rep.Apps[1]
	if heavy.Preemptions == 0 {
		t.Fatal("heavy app was never preempted by the lighter arrival")
	}
	if light.Admit != 20 {
		t.Errorf("light app admitted at %d, want 20 (immediately, via eviction)", light.Admit)
	}
	if !heavy.Completed || !light.Completed {
		t.Errorf("completion = heavy %v light %v, want both (horizon is generous)", heavy.Completed, light.Completed)
	}
	if heavy.Completion <= light.Completion {
		t.Errorf("heavy finished at %d before light at %d despite restarting", heavy.Completion, light.Completion)
	}
	if tele.queued != 0 || tele.running != 0 {
		t.Errorf("telemetry gauges did not drain: queued %d running %d", tele.queued, tele.running)
	}

	noPre := testScenario(arrivals, "sjf", "none")
	noPre.Shape.AppProcs = 4
	rep2, err := Simulate(context.Background(), noPre)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Apps[0].Preemptions != 0 {
		t.Errorf("none policy preempted %d times", rep2.Apps[0].Preemptions)
	}
	if rep2.Apps[1].Admit <= 20 {
		t.Errorf("light app admitted at %d under none, want queued until heavy finishes", rep2.Apps[1].Admit)
	}
}

// TestSimulateDeterministic: equal scenarios produce equal reports, and
// arrivals at or past the horizon never enter the grid.
func TestSimulateDeterministic(t *testing.T) {
	arrivals := []Arrival{
		{T: 0, App: "a0", Wmin: 2, Deadline: 600},
		{T: 30, App: "a1", Wmin: 1, Deadline: 400},
		{T: 5_000, App: "late", Wmin: 1}, // at the horizon: excluded
	}
	sc := testScenario(arrivals, "edf", "lowest-priority")
	a, err := Simulate(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(context.Background(), testScenario(arrivals, "edf", "lowest-priority"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal scenarios produced different reports")
	}
	for _, app := range a.Apps {
		if app.App == "late" {
			t.Fatal("arrival at the horizon entered the grid")
		}
	}
	if len(a.Apps) != 2 {
		t.Fatalf("reported %d apps, want 2", len(a.Apps))
	}
}

// TestSimulateValidation: every malformed scenario is rejected with a
// message naming the defect.
func TestSimulateValidation(t *testing.T) {
	ok := func() Scenario { return testScenario([]Arrival{{T: 0, App: "a", Wmin: 1}}, "fcfs", "none") }
	cases := []struct {
		name    string
		mutate  func(*Scenario)
		wantErr string
	}{
		{"no platform", func(s *Scenario) { s.Platform = nil }, "without platform"},
		{"oversized block", func(s *Scenario) { s.Shape.AppProcs = 64 }, "exceeds platform size"},
		{"bad shape", func(s *Scenario) { s.Shape.M = 0 }, "invalid shape"},
		{"bad horizon", func(s *Scenario) { s.Horizon = 0 }, "horizon"},
		{"no admission", func(s *Scenario) { s.Admission = nil }, "admission"},
		{"no preemption", func(s *Scenario) { s.Preemption = nil }, "admission/preemption"},
		{"history of another platform", func(s *Scenario) {
			s.History = NewHistory(nil, platform.Homogeneous(3, 1, platform.UnboundedCapacity, 6, markov.PerState(0.9, 0.9, 0.9)), 1)
		}, "history of 3 processors"},
		{"unordered arrivals", func(s *Scenario) {
			s.Arrivals = []Arrival{{T: 10, App: "a", Wmin: 1}, {T: 0, App: "b", Wmin: 1}}
		}, "out of order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := ok()
			tc.mutate(&sc)
			_, err := Simulate(context.Background(), sc)
			if err == nil {
				t.Fatal("scenario accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestSimulateDeadlineMissTelemetry: an impossible deadline is reported
// missed and counted by the telemetry exactly once.
func TestSimulateDeadlineMissTelemetry(t *testing.T) {
	sc := testScenario([]Arrival{{T: 0, App: "doomed", Wmin: 1, Deadline: 3}}, "fcfs", "none")
	tele := &countingTelemetry{}
	sc.Telemetry = tele
	rep, err := Simulate(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Apps[0].Missed {
		t.Fatal("3-slot deadline not reported missed")
	}
	if tele.misses != 1 {
		t.Errorf("telemetry counted %d misses, want 1", tele.misses)
	}
}

// TestSimulateCancellation: the engine honors context cancellation.
func TestSimulateCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := testScenario([]Arrival{{T: 0, App: "a", Wmin: 1}}, "fcfs", "none")
	if _, err := Simulate(ctx, sc); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

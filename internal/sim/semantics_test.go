package sim

import (
	"slices"
	"testing"

	"tightsched/internal/app"
	"tightsched/internal/markov"
	"tightsched/internal/platform"
	"tightsched/internal/sched"
	"tightsched/internal/trace"
)

// switchingHeuristic adopts config A, then switches to config B at a given
// slot, to exercise the reconfiguration retention semantics.
type switchingHeuristic struct {
	a, b     app.Assignment
	switchAt int64
}

func (s *switchingHeuristic) Name() string { return "SWITCHER" }

func (s *switchingHeuristic) Decide(v *sched.View) app.Assignment {
	if v.Slot >= s.switchAt {
		return s.b
	}
	return s.a
}

// TestReconfigKeepsCompletedMessages: a worker enrolled in both the old
// and new configuration keeps its program and completed data messages;
// only in-flight partial messages are lost for workers that drop out.
func TestReconfigKeepsCompletedMessages(t *testing.T) {
	pl := platform.Homogeneous(3, 4, platform.UnboundedCapacity, 3, markov.AlwaysUp())
	application := app.Application{Tasks: 2, Tprog: 2, Tdata: 3, Iterations: 1}
	// Config A: one task each on P0, P1. Config B: both tasks stay, P2
	// replaces nobody — actually keep P0 and P1 but swap task counts.
	h := &switchingHeuristic{
		a:        app.Assignment{1, 1, 0},
		b:        app.Assignment{2, 0, 0}, // P1 dropped, P0 takes both tasks
		switchAt: 6,
	}
	rec := &trace.Recorder{}
	res, err := Run(Config{
		Platform: pl, App: application, Custom: h,
		Provider: allUpProvider(3), Recorder: rec, Cap: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Timeline: slots 0-1 both download program (ncom=3). Slots 2-4: P0
	// and P1 download their data message (3 slots each). Slot 5: both
	// fully provisioned -> compute slot 1 of W=4... wait, W = 1·4 = 4.
	// Slot 5,6? No: switch at slot 6. Compute happens at slot 5 only
	// (computeDone=1), then the switch at slot 6 discards it. P0 keeps
	// its program and its one data message, needs one more (3 slots:
	// slots 6-8), then W = 2·4 = 8 compute slots: 9-16. Makespan 17.
	if res.Failed || res.Completed != 1 {
		t.Fatalf("result %+v\n%s", res, rec.Render())
	}
	if res.Makespan != 17 {
		t.Fatalf("makespan = %d, want 17\n%s", res.Makespan, rec.Render())
	}
	if res.Reconfigs != 1 {
		t.Fatalf("reconfigs = %d, want 1", res.Reconfigs)
	}
	// Comm total: 2+2 program + 3 data (P0) + 3 data (P1) + 3 data (P0
	// second message) = 13.
	if res.CommSlots != 13 {
		t.Fatalf("comm slots = %d, want 13\n%s", res.CommSlots, rec.Render())
	}
	// Compute: 1 discarded + 8 final = 9.
	if res.ComputeSlots != 9 {
		t.Fatalf("compute slots = %d, want 9\n%s", res.ComputeSlots, rec.Render())
	}
}

// allUpProvider scripts permanently-UP availability.
func allUpProvider(p int) StateProvider {
	return ProviderFunc(func(slot int64, dst []markov.State) {
		for i := range dst {
			dst[i] = markov.Up
		}
	})
}

// TestCapacityEnforced: with µ=1 everywhere, every heuristic must spread
// m tasks over m distinct workers.
func TestCapacityEnforced(t *testing.T) {
	pl := platform.Homogeneous(6, 2, 1, 6, markov.Uniform(0.97))
	application := app.Application{Tasks: 4, Tprog: 1, Tdata: 1, Iterations: 2}
	for _, name := range []string{"IE", "IP", "Y-IE", "RANDOM"} {
		rec := &trace.Recorder{}
		res, err := Run(Config{
			Platform: pl, App: application, Heuristic: name,
			Seed: 5, Cap: 100000, Recorder: rec,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed {
			t.Fatalf("%s failed: %+v", name, res)
		}
		// µ=1 means a worker never computes more than one task: with
		// speed 2 the workload phase is exactly 2 coupled slots per
		// iteration, so total compute slots = 2 × iterations.
		if res.ComputeSlots < 4 {
			t.Fatalf("%s compute slots = %d", name, res.ComputeSlots)
		}
	}
}

// TestZeroCommApplication: Tprog = Tdata = 0 (the off-line complexity
// section's regime) must work: iterations need only coupled compute slots.
func TestZeroCommApplication(t *testing.T) {
	pl := platform.Homogeneous(4, 3, platform.UnboundedCapacity, 1, markov.AlwaysUp())
	application := app.Application{Tasks: 4, Iterations: 5}
	res, err := Run(Config{Platform: pl, App: application, Heuristic: "IE", Seed: 1, Cap: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed || res.CommSlots != 0 {
		t.Fatalf("zero-comm run: %+v", res)
	}
	// W = 3 per iteration (one task per worker), 5 iterations = 15.
	if res.Makespan != 15 {
		t.Fatalf("makespan = %d, want 15", res.Makespan)
	}
}

// TestNcomOneSerializesCommunication: with ncom = 1 the master serves one
// worker per slot; the communication phase is fully serial.
func TestNcomOneSerializesCommunication(t *testing.T) {
	pl := platform.Homogeneous(3, 2, platform.UnboundedCapacity, 1, markov.AlwaysUp())
	application := app.Application{Tasks: 3, Tprog: 2, Tdata: 1, Iterations: 1}
	rec := &trace.Recorder{}
	res, err := Run(Config{
		Platform: pl, App: application, Heuristic: "IE",
		Seed: 1, Cap: 100, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each of 3 workers needs 3 comm slots = 9 serial slots, then W = 2.
	if res.Makespan != 11 {
		t.Fatalf("makespan = %d, want 11\n%s", res.Makespan, rec.Render())
	}
	for step := range rec.Steps() {
		comm := 0
		for _, act := range step.Activities {
			if act == trace.Program || act == trace.Data {
				comm++
			}
		}
		if comm > 1 {
			t.Fatalf("slot %d: %d simultaneous transfers with ncom=1", step.Slot, comm)
		}
	}
}

// TestProgramPersistsAcrossIterations: the program is downloaded once per
// worker; later iterations only pay for data.
func TestProgramPersistsAcrossIterations(t *testing.T) {
	pl := platform.Homogeneous(2, 1, platform.UnboundedCapacity, 2, markov.AlwaysUp())
	application := app.Application{Tasks: 2, Tprog: 4, Tdata: 1, Iterations: 3}
	res, err := Run(Config{Platform: pl, App: application, Heuristic: "IE", Seed: 1, Cap: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Iteration 1: program 4 + data 1 in parallel on both workers = 5
	// slots, compute 1. Iterations 2-3: data 1 + compute 1 = 2 each.
	// Makespan = 6 + 2 + 2 = 10. Comm slots = 2×5 + 2×1 + 2×1 = 14.
	if res.Makespan != 10 || res.CommSlots != 14 {
		t.Fatalf("makespan=%d comm=%d, want 10/14", res.Makespan, res.CommSlots)
	}
}

// TestDataDiscardedBetweenIterations: task data is per-iteration; workers
// must re-download it each time even if idle in between.
func TestDataDiscardedBetweenIterations(t *testing.T) {
	pl := platform.Homogeneous(2, 1, platform.UnboundedCapacity, 2, markov.AlwaysUp())
	application := app.Application{Tasks: 2, Tprog: 0, Tdata: 5, Iterations: 2}
	res, err := Run(Config{Platform: pl, App: application, Heuristic: "IE", Seed: 1, Cap: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Per iteration: 5 data slots (parallel on both) + 1 compute slot.
	if res.Makespan != 12 {
		t.Fatalf("makespan = %d, want 12", res.Makespan)
	}
	if res.CommSlots != 20 {
		t.Fatalf("comm slots = %d, want 20 (data re-downloaded)", res.CommSlots)
	}
}

// TestElapsedNotResetByRestart: the iteration clock (the t in the yield)
// keeps running across DOWN restarts. Observable via the engine view:
// we use a probe heuristic that records Elapsed values.
func TestElapsedNotResetByRestart(t *testing.T) {
	pl := platform.Homogeneous(2, 10, platform.UnboundedCapacity, 2, markov.Uniform(0.9))
	application := app.Application{Tasks: 2, Tprog: 1, Tdata: 1, Iterations: 1}
	script, err := ParseScript([]string{
		"uuuuduuuuuuuuuuuuuuu",
		"uuuuuuuuuuuuuuuuuuuu",
	})
	if err != nil {
		t.Fatal(err)
	}
	probe := &elapsedProbe{}
	if _, err := Run(Config{
		Platform: pl, App: application, Custom: probe,
		Provider: &ScriptProvider{Script: script}, Cap: 50,
	}); err != nil {
		t.Fatal(err)
	}
	// After the DOWN at slot 4 the iteration restarts but Elapsed must
	// keep counting from the iteration's first start (slot 0).
	if probe.elapsedAt5 != 5 {
		t.Fatalf("elapsed at slot 5 = %d, want 5 (not reset by the restart)", probe.elapsedAt5)
	}
}

type elapsedProbe struct {
	elapsedAt5 int64
}

func (p *elapsedProbe) Name() string { return "PROBE" }

func (p *elapsedProbe) Decide(v *sched.View) app.Assignment {
	if v.Slot == 5 {
		p.elapsedAt5 = v.Elapsed
	}
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

// retentionProbe enrolls every processor once all are UP and keeps that
// configuration, recording at each decision whether the workers'
// message-granularity retention (program held, data messages held)
// changed although the view's retention epoch did not.
type retentionProbe struct {
	epoch     int64
	retention []sched.WorkerInfo
	decisions int
	stale     []int64 // slots whose retention changed under the same epoch
}

func (p *retentionProbe) Name() string { return "RETENTION" }

func (p *retentionProbe) Decide(v *sched.View) app.Assignment {
	retention := make([]sched.WorkerInfo, len(v.Workers))
	for q, w := range v.Workers {
		retention[q] = sched.WorkerInfo{HasProgram: w.HasProgram, DataHeld: w.DataHeld}
	}
	if p.decisions > 0 && v.RetentionEpoch == p.epoch && !slices.Equal(retention, p.retention) {
		p.stale = append(p.stale, v.Slot)
	}
	p.decisions++
	p.epoch, p.retention = v.RetentionEpoch, retention
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

// TestZeroCostAdoptionBumpsRetentionEpoch: an adoption that completes
// zero-cost messages changes retention, so it moves the retention epoch
// like any message completion, under both cores.
func TestZeroCostAdoptionBumpsRetentionEpoch(t *testing.T) {
	pl := platform.Homogeneous(3, 4, platform.UnboundedCapacity, 3, markov.AlwaysUp())
	application := app.Application{Tasks: 3, Tprog: 0, Tdata: 0, Iterations: 3}
	for _, advance := range []TimeAdvance{AdvanceLeap, AdvanceSlot} {
		probe := &retentionProbe{}
		res, err := Run(Config{
			Platform: pl, App: application, Custom: probe,
			Provider: allUpProvider(3), Cap: 200, Advance: advance,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed || res.Completed != 3 || probe.decisions < 3 {
			t.Fatalf("%v: result %+v after %d decisions", advance, res, probe.decisions)
		}
		if len(probe.stale) > 0 {
			t.Fatalf("%v: retention changed under an unchanged epoch at slots %v", advance, probe.stale)
		}
	}
}

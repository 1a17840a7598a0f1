package grid

import (
	"context"
	"fmt"
	"slices"

	"tightsched/internal/analytic"
	"tightsched/internal/app"
	"tightsched/internal/avail"
	"tightsched/internal/platform"
	"tightsched/internal/rng"
	"tightsched/internal/sim"
)

// Telemetry receives live grid gauges: the daemon's /metrics adapter
// implements it with atomics; the zero default is a no-op. Deltas (not
// absolutes) keep concurrent instances additive, and the engine undoes
// its remaining contributions when a simulation ends, so gauges return
// to their baseline.
type Telemetry interface {
	// GridQueued adjusts the waiting-queue depth.
	GridQueued(delta int)
	// GridRunning adjusts the number of admitted, running applications.
	GridRunning(delta int)
	// GridDeadlineMiss records one application missing its deadline.
	GridDeadlineMiss()
}

type noTelemetry struct{}

func (noTelemetry) GridQueued(int)    {}
func (noTelemetry) GridRunning(int)   {}
func (noTelemetry) GridDeadlineMiss() {}

// Scenario is one online grid simulation: a platform, one availability
// realization, a stream of applications, and the policies that arbitrate
// among them.
type Scenario struct {
	// Platform is the shared processor pool (heterogeneous speeds
	// welcome; see platform.GenerateTiered). Its Ncom is each admitted
	// application's master communication capacity.
	Platform *platform.Platform
	// Model is the ground-truth availability model; Platform.Model (or
	// the paper's Markov chains) when nil. Admitted applications
	// schedule against its fitted believed matrices, exactly as single
	// runs do.
	Model avail.Model
	// Shape is the per-application workload shape.
	Shape Shape
	// Horizon is the grid's observation window in slots: applications
	// still incomplete at the horizon are reported unfinished.
	Horizon int64
	// Heuristic schedules each admitted application's tasks (one of
	// sched.Names()).
	Heuristic string
	// Seed determines the availability realization, the per-application
	// run seeds, and nothing else; arrivals are materialized by the
	// caller (exp derives both from the same trial seed).
	Seed uint64
	// Arrivals is the application stream, non-decreasing in T. Arrivals
	// at or beyond Horizon never enter the grid and are not reported.
	Arrivals []Arrival
	// Admission orders the waiting queue; Preemption arbitrates between
	// arriving and running applications.
	Admission  AdmissionPolicy
	Preemption PreemptionPolicy
	// Telemetry receives live gauges (optional).
	Telemetry Telemetry
	// History is the trial's availability realization (optional):
	// NewHistory(Model, Platform, Seed) when nil, and a History passed
	// here must be built the same way. Scenarios of one trial that
	// differ only in policies may share one History, concurrently, and
	// materialize the identical walk once between them.
	History *History
	// AnalyticCache reuses analytic platforms across the admissions of
	// the simulation (optional; see sim.Config.AnalyticCache). Like the
	// platforms it holds it must stay confined to one goroutine, so a
	// campaign worker may carry one across its scenarios.
	AnalyticCache *analytic.PlatformCache
}

// AppReport is one application's outcome.
type AppReport struct {
	// App, Wmin, Arrival and Deadline echo the arrival record.
	App      string
	Wmin     int
	Arrival  int64
	Deadline int64
	// Admit is the slot of the application's final admission (-1 if it
	// never ran); Completion is the absolute completion slot (Horizon
	// when unfinished).
	Admit      int64
	Completion int64
	Completed  bool
	// Preemptions counts evictions; each restarts the application from
	// scratch.
	Preemptions int
	// Response is Completion - Arrival: queueing plus service (horizon-
	// truncated for unfinished applications).
	Response int64
	// Bound is Shape.Bound(Wmin), the crude service-time lower bound;
	// Slowdown is Response/Bound.
	Bound    int64
	Slowdown float64
	// Missed reports a violated deadline: completion after Arrival +
	// Deadline, or still unfinished at the horizon.
	Missed bool
}

// Report is a grid simulation's outcome: per-application reports in
// arrival order and the grid makespan (the last completion slot, or the
// horizon when any application is unfinished).
type Report struct {
	Apps     []AppReport
	Makespan int64
}

// Simulate runs one online grid scenario to its horizon. Everything —
// the availability walk, each admitted application's schedule, every
// policy decision — derives from the scenario alone, so equal scenarios
// produce equal reports on any machine.
func Simulate(ctx context.Context, sc Scenario) (Report, error) {
	if sc.Platform == nil {
		return Report{}, fmt.Errorf("grid: scenario without platform")
	}
	if err := sc.Platform.Validate(); err != nil {
		return Report{}, err
	}
	if err := sc.Shape.Validate(); err != nil {
		return Report{}, err
	}
	p := len(sc.Platform.Procs)
	if sc.Shape.AppProcs > p {
		return Report{}, fmt.Errorf("grid: block of %d processors exceeds platform size %d", sc.Shape.AppProcs, p)
	}
	if sc.Horizon <= 0 {
		return Report{}, fmt.Errorf("grid: horizon %d, want positive", sc.Horizon)
	}
	if sc.Admission == nil || sc.Preemption == nil {
		return Report{}, fmt.Errorf("grid: scenario without admission/preemption policy")
	}
	for i := 1; i < len(sc.Arrivals); i++ {
		if sc.Arrivals[i].T < sc.Arrivals[i-1].T {
			return Report{}, fmt.Errorf("grid: arrivals out of order at %d", i)
		}
	}

	e := &engine{sc: sc, tele: sc.Telemetry}
	if e.tele == nil {
		e.tele = noTelemetry{}
	}
	e.model = sc.Model
	if e.model == nil {
		e.model = sc.Platform.AvailModel()
	}
	e.hist = sc.History
	if e.hist == nil {
		e.hist = NewHistory(e.model, sc.Platform, sc.Seed)
	} else if e.hist.p != p {
		return Report{}, fmt.Errorf("grid: history of %d processors, platform has %d", e.hist.p, p)
	}
	e.free = make([]int, p)
	for q := range e.free {
		e.free[q] = q
	}
	for i := range sc.Arrivals {
		if sc.Arrivals[i].T < sc.Horizon {
			e.apps = append(e.apps, &appState{idx: i, arr: sc.Arrivals[i], admit: -1, bound: sc.Shape.Bound(sc.Arrivals[i].Wmin)})
		}
	}
	return e.run(ctx)
}

// appState tracks one application through the queue and its runs.
type appState struct {
	idx   int
	arr   Arrival
	bound int64
	// queue/run position.
	queued  bool
	running bool
	procs   []int
	// admit is the latest admission slot (-1 before the first).
	admit int64
	// completion/willComplete describe the scheduled run outcome:
	// absolute completion slot, and whether the run finishes its
	// iterations (false: it rides to the horizon incomplete).
	completion   int64
	willComplete bool
	preemptions  int
	report       AppReport
	done         bool
}

type engine struct {
	sc    Scenario
	model avail.Model
	tele  Telemetry
	hist  *History
	free  []int // free processor indices, ascending
	apps  []*appState
	queue []*appState
	run_  []*appState // admitted, running applications
}

func (e *engine) run(ctx context.Context) (Report, error) {
	next := 0 // next un-enqueued arrival (apps is arrival-ordered)
	for {
		if err := ctx.Err(); err != nil {
			return Report{}, err
		}
		t := e.sc.Horizon
		if next < len(e.apps) && e.apps[next].arr.T < t {
			t = e.apps[next].arr.T
		}
		for _, a := range e.run_ {
			if a.completion < t {
				t = a.completion
			}
		}
		if t >= e.sc.Horizon {
			break
		}
		// Completions strictly precede arrivals within a slot: a block
		// freed at t is available to an application arriving at t.
		e.completeAt(t)
		for next < len(e.apps) && e.apps[next].arr.T == t {
			e.enqueue(e.apps[next])
			next++
		}
		if err := e.admit(ctx, t); err != nil {
			return Report{}, err
		}
		if err := e.preempt(ctx, t); err != nil {
			return Report{}, err
		}
	}
	// Horizon: finish runs scheduled to complete exactly at it, then
	// report everything still queued or running as unfinished.
	e.completeAt(e.sc.Horizon)
	for _, a := range slices.Clone(e.run_) {
		e.finish(a, e.sc.Horizon, false)
	}
	for _, a := range slices.Clone(e.queue) {
		e.dequeue(a)
		e.finish(a, e.sc.Horizon, false)
	}

	rep := Report{Apps: make([]AppReport, 0, len(e.apps))}
	for _, a := range e.apps {
		rep.Apps = append(rep.Apps, a.report)
		if c := a.report.Completion; c > rep.Makespan {
			rep.Makespan = c
		}
	}
	return rep, nil
}

// completeAt retires every running application whose scheduled
// completion is t, in arrival order.
func (e *engine) completeAt(t int64) {
	for _, a := range slices.Clone(e.run_) {
		if a.completion == t {
			e.finish(a, t, a.willComplete)
		}
	}
}

func (e *engine) enqueue(a *appState) {
	a.queued = true
	e.queue = append(e.queue, a)
	e.tele.GridQueued(1)
}

func (e *engine) dequeue(a *appState) {
	a.queued = false
	e.queue = slices.DeleteFunc(e.queue, func(x *appState) bool { return x == a })
	e.tele.GridQueued(-1)
}

// queueTop returns the waiting application the admission policy serves
// next: smallest priority, ties by arrival slot then arrival index.
func (e *engine) queueTop(now int64) *appState {
	var best *appState
	var bestPrio float64
	for _, a := range e.queue {
		p := e.sc.Admission.Priority(a.arr, now)
		if best == nil || p < bestPrio ||
			(p == bestPrio && (a.arr.T < best.arr.T || (a.arr.T == best.arr.T && a.idx < best.idx))) {
			best, bestPrio = a, p
		}
	}
	return best
}

// admit starts waiting applications while a full processor block is
// free, in admission-priority order.
func (e *engine) admit(ctx context.Context, now int64) error {
	for len(e.queue) > 0 && len(e.free) >= e.sc.Shape.AppProcs && now < e.sc.Horizon {
		a := e.queueTop(now)
		e.dequeue(a)
		if err := e.start(ctx, a, now); err != nil {
			return err
		}
	}
	return nil
}

// preempt lets the queue's best waiting application evict a running one
// when the policy finds a strictly lower-priority victim. The victim
// requeues (restarting from scratch on readmission) and the loop
// repeats: each round strictly improves the running set's priorities, so
// it terminates.
func (e *engine) preempt(ctx context.Context, now int64) error {
	for len(e.queue) > 0 && now < e.sc.Horizon {
		cand := e.queueTop(now)
		running := make([]Arrival, len(e.run_))
		for i, a := range e.run_ {
			running[i] = a.arr
		}
		vi := e.sc.Preemption.Victim(cand.arr, running, now, e.sc.Admission.Priority)
		if vi < 0 || vi >= len(e.run_) {
			return nil
		}
		victim := e.run_[vi]
		e.stop(victim)
		victim.preemptions++
		e.enqueue(victim)
		if err := e.admit(ctx, now); err != nil {
			return err
		}
	}
	return nil
}

// start admits a onto the lowest-indexed free block and simulates its
// run against the trial's availability history, scheduling its
// completion.
func (e *engine) start(ctx context.Context, a *appState, now int64) error {
	k := e.sc.Shape.AppProcs
	procs := slices.Clone(e.free[:k])
	e.free = slices.Clone(e.free[k:])
	sub := &platform.Platform{Procs: make([]platform.Processor, k), Ncom: e.sc.Platform.Ncom}
	for i, q := range procs {
		sub.Procs[i] = e.sc.Platform.Procs[q]
	}
	res, err := sim.RunContext(ctx, sim.Config{
		Platform:      sub,
		App:           app.Application{Tasks: e.sc.Shape.M, Tprog: 5 * a.arr.Wmin, Tdata: a.arr.Wmin, Iterations: e.sc.Shape.Iterations},
		Heuristic:     e.sc.Heuristic,
		Seed:          rng.NewKeyed(e.sc.Seed, 0x0a44, uint64(a.idx), uint64(a.preemptions), uint64(now)).Uint64(),
		Cap:           e.sc.Horizon - now,
		Model:         e.model,
		Provider:      newWindow(e.hist, procs, now),
		AnalyticCache: e.sc.AnalyticCache,
	})
	if err != nil {
		return err
	}
	a.running = true
	a.procs = procs
	a.admit = now
	if res.Failed {
		a.completion, a.willComplete = e.sc.Horizon, false
	} else {
		a.completion, a.willComplete = now+res.Makespan, true
	}
	e.run_ = append(e.run_, a)
	e.tele.GridRunning(1)
	return nil
}

// stop removes a from the running set and returns its block to the free
// pool (kept ascending so the next grant is deterministic).
func (e *engine) stop(a *appState) {
	a.running = false
	e.run_ = slices.DeleteFunc(e.run_, func(x *appState) bool { return x == a })
	e.free = append(e.free, a.procs...)
	slices.Sort(e.free)
	a.procs = nil
	e.tele.GridRunning(-1)
}

// finish records a's final report at slot t. completed applications
// leave the running set; unfinished ones are horizon-truncated.
func (e *engine) finish(a *appState, t int64, completed bool) {
	if a.running {
		e.stop(a)
	}
	missed := a.arr.Deadline > 0 && (!completed || t > a.arr.T+a.arr.Deadline)
	a.done = true
	a.report = AppReport{
		App:         a.arr.App,
		Wmin:        a.arr.Wmin,
		Arrival:     a.arr.T,
		Deadline:    a.arr.Deadline,
		Admit:       a.admit,
		Completion:  t,
		Completed:   completed,
		Preemptions: a.preemptions,
		Response:    t - a.arr.T,
		Bound:       a.bound,
		Slowdown:    float64(t-a.arr.T) / float64(a.bound),
		Missed:      missed,
	}
	if missed {
		e.tele.GridDeadlineMiss()
	}
}

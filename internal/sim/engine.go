package sim

import (
	"context"
	"fmt"

	"tightsched/internal/analytic"
	"tightsched/internal/app"
	"tightsched/internal/avail"
	"tightsched/internal/markov"
	"tightsched/internal/platform"
	"tightsched/internal/rng"
	"tightsched/internal/sched"
	"tightsched/internal/trace"
)

// DefaultCap is the paper's makespan limit: a run that has not completed
// its iterations within this many slots is declared failed.
const DefaultCap = 1_000_000

// DefaultEps is the engine's default analytic precision. Heuristics rank
// configurations; they do not need the full reference precision of
// analytic.DefaultEps, and the series horizon scales with log(1/eps).
const DefaultEps = 1e-6

// defaultMaxLeap caps one macro-step of the production core. Beyond
// bounding memory per trace span, it bounds cancellation latency: a
// cancellable context is polled at macro-step boundaries, so at most
// defaultMaxLeap slots of O(p) bulk arithmetic run between polls.
const defaultMaxLeap = 1 << 16

// TimeAdvance selects the engine's time-advance core. There are two:
// the production trial-group loop and the slot-stepped reference.
type TimeAdvance int

const (
	// AdvanceLeap (the default) is the production core (batch.go): a
	// trial group's instances advance through the same homogeneous runs
	// of one shared availability walk, and at each state change every
	// instance leaps to its next interesting slot — the earliest of the
	// next availability transition, the current phase's completion
	// (message done, coupled compute done) and the cap — applying the
	// intervening slots in O(p) bulk arithmetic. A solo run is a trial
	// group of one; RunBatch runs a sweep cell's trials and heuristics
	// together, sharing walks and greedy builds.
	// Results and traces are byte-identical to AdvanceSlot (pinned by
	// TestLeapGoldenParity, TestBatchGoldenParity and the differential
	// tests in leap_diff_test.go and batch_diff_test.go).
	AdvanceLeap TimeAdvance = iota
	// AdvanceSlot is the reference slot-stepped loop: every slot pays
	// full bookkeeping. It is the in-module differential oracle; no
	// command-line flag, session option or daemon spec selects it.
	AdvanceSlot
)

// String names the core in messages and test failures. It stays while
// the deprecated root alias tightsched.TimeAdvance exists, whose callers
// may format it with %s.
func (a TimeAdvance) String() string {
	switch a {
	case AdvanceLeap:
		return "leap"
	case AdvanceSlot:
		return "slot"
	default:
		return fmt.Sprintf("TimeAdvance(%d)", int(a))
	}
}

// Validate rejects values outside the defined advance modes. It is the
// single validation point shared by the engine and the sweep harness,
// so an out-of-range mode fails loudly at configuration time instead of
// falling back to a default core.
func (a TimeAdvance) Validate() error {
	switch a {
	case AdvanceLeap, AdvanceSlot:
		return nil
	default:
		return fmt.Errorf("sim: unknown time advance %d", int(a))
	}
}

// Config describes one simulation run.
type Config struct {
	Platform *platform.Platform
	App      app.Application
	// Heuristic is one of sched.Names(). Ignored when Custom is set.
	Heuristic string
	// Custom, when non-nil, is used instead of building Heuristic by
	// name. It lets callers plug in their own scheduling policies.
	Custom sched.Heuristic
	// Seed determines the availability realization and any randomized
	// heuristic decisions. Two runs with the same seed and different
	// heuristics see identical availability (availability is independent
	// of scheduling).
	Seed uint64
	// Cap is the failure limit in slots (DefaultCap when 0).
	Cap int64
	// InitialAllUp starts every processor UP instead of drawing initial
	// states from the stationary distribution.
	InitialAllUp bool
	// Model overrides the platform's availability model for this run.
	// When both Model and Platform.Model are nil the processors' Markov
	// matrices are ground truth (the paper's assumption).
	Model avail.Model
	// Provider overrides the model's per-trial provider entirely
	// (scripted runs); believed matrices still come from the model.
	Provider StateProvider
	// Recorder, when non-nil, records a per-slot trace.
	Recorder *trace.Recorder
	// Eps is the analytic series precision (analytic.DefaultEps when 0).
	Eps float64
	// Analytic tunes the Section V evaluator (see analytic.Options). The
	// zero value memoizes set statistics by membership: every evaluation
	// of a set returns the same canonical (sorted-order) floats, and
	// golden simulations are byte-identical to the memo-disabled path
	// (pinned by TestEvaluationCacheGoldenParity).
	Analytic analytic.Options
	// AnalyticCache, when non-nil, reuses analytic platforms across runs
	// that share believed matrices (e.g. the trials and heuristics of one
	// sweep point). The cache, like the platforms it holds, must stay
	// confined to a single goroutine; reuse is bit-transparent because
	// memoized statistics are canonical.
	AnalyticCache *analytic.PlatformCache
	// RenewalE switches the heuristics' expected-completion-time metric
	// to the renewal form (see sched.Env.RenewalE). The default (false)
	// uses the formula as printed in the paper, reproducing its
	// published rankings.
	RenewalE bool
	// Advance selects the time-advance core: the production trial-group
	// loop (AdvanceLeap, the zero value) or the reference slot-stepped
	// loop (AdvanceSlot). Both produce byte-identical results and traces.
	Advance TimeAdvance
	// maxLeap caps one macro-step of the production core in slots
	// (defaultMaxLeap when 0), bounding worst-case cancellation latency.
	// Only this package's tests set it; AdvanceSlot ignores it.
	maxLeap int64
}

// Result summarizes one run.
type Result struct {
	Heuristic string
	// Completed is the number of iterations finished before the cap.
	Completed int
	// Makespan is the number of slots used to complete all iterations;
	// equal to the cap when Failed.
	Makespan int64
	// Failed reports that the run hit the cap before completing.
	Failed bool
	// Reconfigs counts configuration adoptions that replaced a different
	// live configuration (proactive switches).
	Reconfigs int64
	// Restarts counts iteration restarts forced by an enrolled worker
	// going DOWN.
	Restarts int64
	// IdleSlots counts slots with no feasible configuration.
	IdleSlots int64
	// CommSlots counts worker-slots spent receiving program or data.
	CommSlots int64
	// ComputeSlots counts slots in which the coupled computation advanced.
	ComputeSlots int64
}

// engine holds the mutable ground-truth state of a run.
type engine struct {
	cfg    Config
	env    sched.Env
	h      sched.Heuristic
	prov   StateProvider
	cap    int64
	speeds []int

	states  []markov.State
	workers []sched.WorkerInfo
	acts    []trace.Activity
	// codes are the decision codes of states and workers (see
	// sched.Codes), attached to viewBuf. The production core rewrites a
	// code only where its processor's state or retention can have
	// changed: the run's changed processors, a message completion, a
	// zero-cost adoption and an iteration end; the slot core rewrites
	// them all every slot.
	codes sched.Codes
	// caps holds every processor's capacity, for validateNew.
	caps []int
	// commServed is the scratch for the serviced worker set of one
	// communication sub-step; downs is the DOWN list of the slot loop
	// and, with changed and prev, the run diff of the engine's own group
	// (see batchGroup). speeds, caps and these share one allocation of
	// 5p ints.
	commServed []int
	downs      []int
	changed    []int
	prev       []markov.State

	current     app.Assignment
	enrolled    []int
	workload    int
	computeDone int
	iterStart   int64
	retEpoch    int64

	// viewBuf is the reusable snapshot handed to the heuristic: every
	// consumer reads it synchronously inside Decide/DecideSpan (none
	// retains the pointer), so one buffer per engine avoids an
	// allocation per decision epoch.
	viewBuf sched.View

	res Result
	// done marks a finished instance of a trial group.
	done bool
	// group and self are the engine's own one-instance trial group, so
	// a solo run allocates no group state.
	group batchGroup
	self  [1]*engine
}

// Run executes one simulation and returns its result.
func Run(cfg Config) (Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run under a context: cancellation is checked at every
// macro-step boundary (every slot under AdvanceSlot), so even a run
// heading for a million-slot cap stops promptly — a macro-step is
// bounded, so at most defaultMaxLeap slots of O(p) bulk accounting run
// between polls. A cancelled run returns the partial Result accumulated
// so far (Makespan = slots executed, Failed unset) together with the
// context's error. An uncancellable context costs nothing on either loop.
//
// A production run is a trial group of one over the engine's own
// provider: no decision cache, no grouping, no group allocation.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	e, err := newEngine(cfg, true)
	if err != nil {
		return Result{}, err
	}
	if cfg.Advance == AdvanceSlot {
		return e.runSlot(ctx)
	}
	err = runGroup(ctx, e.ownGroup())
	return e.res, err
}

// ownGroup makes the engine its own one-instance trial group over its
// provider.
func (e *engine) ownGroup() *batchGroup {
	e.self[0] = e
	e.group = batchGroup{
		rp:      avail.AsRunProvider(e.prov),
		states:  e.states,
		prev:    e.prev,
		changed: e.changed,
		downs:   e.downs,
		insts:   e.self[:],
		live:    1,
	}
	return &e.group
}

// newEngine validates the configuration and assembles one instance's
// engine. When needProv is false the availability provider seam is left
// nil — a multi-instance trial group shares one provider across its
// instances and aliases the engine's state vector to the group's.
func newEngine(cfg Config, needProv bool) (*engine, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("sim: nil platform")
	}
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.App.Validate(); err != nil {
		return nil, err
	}
	if cfg.Platform.TotalCapacity() < cfg.App.Tasks {
		return nil, fmt.Errorf("sim: platform capacity %d below %d tasks",
			cfg.Platform.TotalCapacity(), cfg.App.Tasks)
	}
	eps := cfg.Eps
	if eps == 0 {
		eps = DefaultEps
	}
	model := cfg.Model
	if model == nil {
		model = cfg.Platform.AvailModel()
	}
	base := cfg.Platform.Matrices()
	believed := model.EstimatorMatrices(base)
	if len(believed) != cfg.Platform.Size() {
		return nil, fmt.Errorf("sim: model %s believes %d processors, platform has %d",
			model.Name(), len(believed), cfg.Platform.Size())
	}
	var apl *analytic.Platform
	if cfg.AnalyticCache != nil {
		apl = cfg.AnalyticCache.Get(believed, eps, cfg.Analytic)
	} else {
		apl = analytic.NewPlatformWith(believed, eps, cfg.Analytic)
	}
	// The heuristic's Env lives inside the engine: one allocation fewer
	// per run.
	e := &engine{cfg: cfg}
	e.env = sched.Env{
		Platform: cfg.Platform,
		App:      cfg.App,
		Believed: believed,
		Analytic: apl,
		Rand:     rng.NewKeyed(cfg.Seed, 0x7a4d),
		RenewalE: cfg.RenewalE,
	}
	h := cfg.Custom
	if h == nil {
		var err error
		h, err = sched.Build(cfg.Heuristic, &e.env)
		if err != nil {
			return nil, err
		}
	}
	var prov StateProvider
	if needProv {
		prov = cfg.Provider
		if prov == nil {
			prov = model.Provider(base, cfg.Seed, cfg.InitialAllUp)
		}
	}
	capSlots := cfg.Cap
	if capSlots == 0 {
		capSlots = DefaultCap
	}
	if capSlots < 0 {
		return nil, fmt.Errorf("sim: negative cap %d", capSlots)
	}
	if err := cfg.Advance.Validate(); err != nil {
		return nil, err
	}

	p := cfg.Platform.Size()
	scratch := make([]int, 5*p)
	states := make([]markov.State, 2*p)
	e.h = h
	e.prov = prov
	e.cap = capSlots
	e.speeds, e.caps = scratch[:p:p], scratch[p:2*p:2*p]
	for q := range cfg.Platform.Procs {
		proc := &cfg.Platform.Procs[q]
		e.speeds[q], e.caps[q] = proc.Speed, proc.Capacity
	}
	e.states = states[:p:p]
	e.prev = unseenStates(states[p:])
	e.workers = make([]sched.WorkerInfo, p)
	e.acts = make([]trace.Activity, p)
	e.commServed = scratch[2*p : 2*p : 3*p]
	e.downs = scratch[3*p : 3*p : 4*p]
	e.changed = scratch[4*p : 4*p]
	e.codes.Init(p, cfg.App.Tasks)
	e.codes.Attach(&e.viewBuf)
	e.res = Result{Heuristic: h.Name()}
	return e, nil
}

// runSlot is the reference slot-stepped core: the paper's engine as
// written, one full bookkeeping pass per slot. The production loop
// (runGroup, batch.go) must stay byte-identical to it.
func (e *engine) runSlot(ctx context.Context) (Result, error) {
	// Done is nil for uncancellable contexts, so the paper-faithful batch
	// path pays nothing; otherwise one non-blocking channel poll per slot
	// bounds cancellation latency to a single slot of work.
	done := ctx.Done()
	for slot := int64(0); slot < e.cap; slot++ {
		if done != nil {
			select {
			case <-done:
				e.res.Makespan = slot
				return e.res, ctx.Err()
			default:
			}
		}
		e.prov.States(slot, e.states)
		e.downs = downList(e.downs, e.states)
		event := e.handleDowns(e.downs)
		e.codes.SetAll(e.states, e.workers)

		if err := e.decide(slot); err != nil {
			return e.res, err
		}

		e.execute(slot, &event)
		e.cfg.Recorder.Record(slot, e.states, e.acts, event)

		if e.res.Completed == e.cfg.App.Iterations {
			e.res.Makespan = slot + 1
			return e.res, nil
		}
	}
	e.res.Failed = true
	e.res.Makespan = e.cap
	return e.res, nil
}

// downList refills buf with the ascending DOWN processors of states.
func downList(buf []int, states []markov.State) []int {
	buf = buf[:0]
	for q, s := range states {
		if s == markov.Down {
			buf = append(buf, q)
		}
	}
	return buf
}

// handleDowns applies the DOWN semantics of Section III.B to the DOWN
// processors listed in downs (ascending): a DOWN worker loses the
// program, its data and any partial communication; if it was enrolled,
// the iteration restarts from scratch. It is idempotent while the states
// stand still, so the production core passes only the processors that
// went DOWN at the run's start: one already DOWN had its retention wiped
// then, gains none while DOWN, and cannot be enrolled (adoption requires
// UP). The slot core passes every DOWN processor each slot. The returned
// restart event names the first enrolled DOWN processor; it is built
// only when a Recorder will read it. A DOWN processor's decision code is
// 0 whatever its retention, so the wipe leaves the codes as they are.
func (e *engine) handleDowns(downs []int) string {
	broke := -1
	for _, q := range downs {
		w := &e.workers[q]
		if w.HasProgram || w.DataHeld > 0 || w.ProgProgress > 0 || w.DataProgress > 0 {
			*w = sched.WorkerInfo{}
			e.retEpoch++
		}
		if broke < 0 && e.current != nil && e.current[q] > 0 {
			broke = q
		}
	}
	if broke < 0 {
		return ""
	}
	e.res.Restarts++
	e.dropConfiguration()
	if e.cfg.Recorder == nil {
		return ""
	}
	return fmt.Sprintf("restart: P%d DOWN", broke+1)
}

// dropConfiguration abandons the current configuration: all enrolled
// workers are "removed", so their in-flight message progress is lost
// (complete messages and the program are kept unless DOWN took them).
func (e *engine) dropConfiguration() {
	for _, q := range e.enrolled {
		e.workers[q].ProgProgress = 0
		e.workers[q].DataProgress = 0
	}
	e.current = nil
	e.enrolled = nil
	e.workload = 0
	e.computeDone = 0
}

// view refreshes the heuristic's per-slot snapshot in the engine's
// reusable buffer (see viewBuf).
func (e *engine) view(slot int64) *sched.View {
	// Field by field: the buffer keeps its attached codes, and no View
	// is built to be copied in.
	v := &e.viewBuf
	v.Slot = slot
	v.States = e.states
	v.Workers = e.workers
	v.Current = e.current
	v.RemainingWork = e.workload - e.computeDone
	v.Elapsed = slot - e.iterStart
	v.RetentionEpoch = e.retEpoch
	return v
}

// decide asks the heuristic for this slot's configuration and adopts it.
func (e *engine) decide(slot int64) error {
	return e.apply(e.h.Decide(e.view(slot)), slot)
}

// apply adopts (or keeps, or drops) the decision returned for slot: the
// single adoption path shared by the slot and production cores.
func (e *engine) apply(next app.Assignment, slot int64) error {
	if next == nil {
		if e.current != nil {
			e.res.Reconfigs++
			e.dropConfiguration()
		}
		return nil
	}
	if e.current != nil && next.Equal(e.current) {
		return nil
	}
	// Adopting a new configuration: validate it, then apply the removal
	// semantics to workers that dropped out.
	if err := e.validateNew(next); err != nil {
		return fmt.Errorf("sim: heuristic %s slot %d: %w", e.h.Name(), slot, err)
	}
	if e.current != nil {
		e.res.Reconfigs++
		for _, q := range e.enrolled {
			if next[q] == 0 {
				e.workers[q].ProgProgress = 0
				e.workers[q].DataProgress = 0
			}
		}
	}
	e.current = next.Clone()
	e.enrolled = e.current.Enrolled()
	e.workload = e.current.Workload(e.speeds)
	e.computeDone = 0
	// Zero-cost communication items complete instantly, a retention
	// change like any message completion.
	if e.cfg.App.Tprog == 0 || e.cfg.App.Tdata == 0 {
		for _, q := range e.enrolled {
			w := &e.workers[q]
			if e.cfg.App.Tprog == 0 && !w.HasProgram {
				w.HasProgram = true
				e.retEpoch++
			}
			if e.cfg.App.Tdata == 0 && w.DataHeld < e.current[q] {
				w.DataHeld = e.current[q]
				e.retEpoch++
			}
			e.codes.Set(q, e.states[q], w)
		}
	}
	return nil
}

// validateNew enforces the model's enrollment rules on a configuration
// returned by a heuristic: exactly m tasks, capacities respected, and all
// enrolled workers UP at adoption time.
func (e *engine) validateNew(asg app.Assignment) error {
	if err := asg.Validate(e.cfg.App.Tasks, e.caps); err != nil {
		return err
	}
	for q, x := range asg {
		if x > 0 && e.states[q] != markov.Up {
			return fmt.Errorf("enrolled processor %d is %v", q, e.states[q])
		}
	}
	return nil
}

// execute advances the configuration by one slot: the communication phase
// under the bounded multi-port constraint, or one coupled compute slot
// when every enrolled worker is UP.
func (e *engine) execute(slot int64, event *string) {
	for q := range e.acts {
		e.acts[q] = trace.NotEnrolled
	}
	if e.current == nil {
		e.res.IdleSlots++
		return
	}
	for _, q := range e.enrolled {
		e.acts[q] = trace.Idle
	}

	if e.commOutstanding() {
		e.communicate()
		return
	}

	// Computation phase: all enrolled workers must be UP simultaneously.
	for _, q := range e.enrolled {
		if e.states[q] != markov.Up {
			return // suspended; activities stay Idle
		}
	}
	for _, q := range e.enrolled {
		e.acts[q] = trace.Compute
	}
	e.computeDone++
	e.res.ComputeSlots++
	if e.computeDone >= e.workload {
		e.finishIteration(slot, event)
	}
}

// commOutstanding reports whether any enrolled worker still needs master
// communication for the current configuration.
func (e *engine) commOutstanding() bool {
	for _, q := range e.enrolled {
		w := e.workers[q]
		if !w.HasProgram || w.DataHeld < e.current[q] {
			return true
		}
	}
	return false
}

// communicate allocates up to Ncom communication slots to UP enrolled
// workers that still need the program or data, in increasing processor
// order (deterministic tie-breaking; the paper does not prescribe one).
// RECLAIMED workers' transfers are suspended and consume no bandwidth.
func (e *engine) communicate() {
	budget := e.cfg.Platform.Ncom
	for _, q := range e.enrolled {
		if budget == 0 {
			break
		}
		if e.states[q] != markov.Up {
			continue
		}
		w := &e.workers[q]
		switch {
		case !w.HasProgram:
			w.ProgProgress++
			e.acts[q] = trace.Program
			if w.ProgProgress >= e.cfg.App.Tprog {
				w.HasProgram = true
				w.ProgProgress = 0
				e.retEpoch++
			}
		case w.DataHeld < e.current[q]:
			w.DataProgress++
			e.acts[q] = trace.Data
			if w.DataProgress >= e.cfg.App.Tdata {
				w.DataHeld++
				w.DataProgress = 0
				e.retEpoch++
			}
		default:
			continue // fully provisioned; no bandwidth used
		}
		budget--
		e.res.CommSlots++
	}
}

// finishIteration applies the global synchronization: per-iteration data
// is discarded everywhere, the configuration is cleared, and the next
// iteration (if any) starts at the following slot. The completion event
// is built only when a Recorder will read it.
func (e *engine) finishIteration(slot int64, event *string) {
	e.res.Completed++
	if e.cfg.Recorder != nil {
		*event = fmt.Sprintf("iteration %d complete", e.res.Completed)
	}
	for q := range e.workers {
		e.workers[q].DataHeld = 0
		e.workers[q].DataProgress = 0
	}
	e.codes.SetAll(e.states, e.workers)
	e.current = nil
	e.enrolled = nil
	e.workload = 0
	e.computeDone = 0
	e.retEpoch++
	e.iterStart = slot + 1
}

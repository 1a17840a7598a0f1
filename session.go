package tightsched

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"

	"tightsched/internal/analytic"
	"tightsched/internal/avail"
	"tightsched/internal/exp"
	"tightsched/internal/rng"
	"tightsched/internal/sched"
	"tightsched/internal/sim"
	"tightsched/internal/stats"
)

// This file is the context-aware Session API, the package's only way to
// run a simulation or a campaign: every entry point takes a context.Context (checked at
// macro-step boundaries inside simulations — see WithTimeAdvance and
// WithMaxLeap — and at instance boundaries in worker pools),
// configuration flows through functional options, campaign progress is
// observable as a typed event stream, and the heuristic/model extension
// points are open string-keyed registries. Run, Compare and Estimate sit
// directly on the simulator (internal/sim) and the Section V evaluator
// (internal/analytic); the campaign entry points on internal/exp.
//
//	s := tightsched.NewSession(tightsched.WithCap(200_000))
//	res, err := s.Run(ctx, sc, "Y-IE", tightsched.WithSeed(7))
//	for ev, err := range s.Stream(ctx, sweep) { ... }

// Campaign event-stream types (see the exp package for semantics): a
// Stream yields SweepEvents; an Observer receives them from the RunSweep
// family.
type (
	// SweepEvent is one item of a campaign's event stream; the concrete
	// types are InstanceDone, PointDone and Progress.
	SweepEvent = exp.Event
	// InstanceDone carries one completed (and, if journaling, already
	// journaled) campaign instance.
	InstanceDone = exp.InstanceDone
	// PointDone signals that every instance of one (model, point) cell
	// has completed.
	PointDone = exp.PointDone
	// Progress reports campaign completion counters.
	Progress = exp.Progress
	// Observer receives typed campaign events from a single goroutine.
	Observer = exp.Observer
)

// Extension-point types: the open registries accept factories keyed by
// name, making new heuristics and availability models first-class
// citizens of Run, Compare, sweep axes and journal resume.
type (
	// HeuristicEnv is the per-run environment a heuristic factory builds
	// from: the platform, the application, and the Section V estimators
	// over the believed availability matrices.
	HeuristicEnv = sched.Env
	// HeuristicView is the per-slot snapshot a Heuristic decides on —
	// the parameter type of Heuristic.Decide, exported so policies can
	// be implemented outside the module.
	HeuristicView = sched.View
	// WorkerInfo is the per-worker retention state inside a
	// HeuristicView.
	WorkerInfo = sched.WorkerInfo
	// HeuristicFactory constructs a heuristic instance for one run.
	HeuristicFactory = sched.Factory
	// ModelFactory constructs a fresh availability model.
	ModelFactory = avail.Factory
)

// RegisterHeuristic makes a scheduling policy runnable by name everywhere
// a built-in is: Session.Run, Session.Compare, sweep heuristic axes, and
// the command-line tools. Registered names appear in Heuristics(). It
// errors on a duplicate or empty name and on a nil factory.
func RegisterHeuristic(name string, f HeuristicFactory) error {
	return sched.Register(name, f)
}

// RegisterModel makes an availability model resolvable by name everywhere
// a built-in is: ModelByName, sweep model axes, and — because journal
// headers record models by name — headless ResumeSweep of campaigns that
// used it. The factory's model must report the registered name; names
// appear in AvailabilityModels().
func RegisterModel(name string, f ModelFactory) error {
	return avail.Register(name, f)
}

// optionScope is a bitmask of the Session entry points an option
// actually configures — exactly those; an option that an entry point
// would silently ignore is excluded from its mask and rejected at the
// call.
type optionScope uint8

const (
	scopeSessionRun optionScope = 1 << iota
	scopeCompare
	scopeRunSweep
	scopeStream
	scopeResumeSweep
	scopeRunOnline
	scopeResumeOnline

	// scopeRun options configure single simulations (Run and Compare).
	scopeRun = scopeSessionRun | scopeCompare
	// scopeConsume options configure how campaign results are delivered;
	// Stream is excluded — its events are the delivery mechanism.
	scopeConsume = scopeRunSweep | scopeResumeSweep
	// scopeExec options configure campaign execution; ResumeSweep is
	// excluded from journal/shard selection — both come from the file.
	scopeExec = scopeRunSweep | scopeStream
	// scopeOnline options configure online grid campaigns (RunOnline and
	// ResumeOnline).
	scopeOnline = scopeRunOnline | scopeResumeOnline
)

// appliedOption records one applied option for scope checking.
type appliedOption struct {
	name  string
	scope optionScope
}

// sessionConfig is the resolved option set of a Session or one call.
type sessionConfig struct {
	// run carries the simulation options; each run fills in the
	// scenario and heuristic.
	run      sim.Config
	workers  int
	journal  *exp.Journal
	shard    exp.Shard
	progress func(done, total int)
	sink     func(SweepInstance) error
	observer Observer
	discard  bool
	// Online grid options (RunOnline / ResumeOnline).
	gridJournal   *OnlineJournal
	gridTelemetry GridTelemetry
	// err records the first invalid option value (e.g. an out-of-range
	// WithTimeAdvance); check surfaces it before any entry point runs.
	err error
	// applied tracks per-call options so entry points can reject one
	// passed outside its scope instead of silently ignoring it.
	applied []appliedOption
}

// Option configures a Session or a single Session call. Options given at
// NewSession apply to every call made through the session, each where it
// is meaningful; options given per call override them and must apply to
// that call — each With* documents which entry points it configures, and
// passing one outside that set is an error, never a silent no-op.
// Broadly: simulation options (WithSeed, WithCap, WithModel, ...)
// configure Run and Compare; campaign options configure the
// RunSweep/Stream/ResumeSweep family, minus the combinations an entry
// point cannot honor (Stream delivers events itself, so it takes no
// consumption callbacks; ResumeSweep reads journal and shard from the
// file). Campaign scale (cap, seed, heuristics, models) lives on the
// Sweep value itself.
type Option func(*sessionConfig)

// scoped tags an option setter with its name and scope.
func scoped(name string, scope optionScope, set func(*sessionConfig)) Option {
	return func(c *sessionConfig) {
		set(c)
		c.applied = append(c.applied, appliedOption{name, scope})
	}
}

// WithSeed sets the seed driving the availability realization and any
// randomized decisions of a run — or, for Compare, the base seed the
// per-trial realizations derive from.
func WithSeed(seed uint64) Option {
	return scoped("WithSeed", scopeRun, func(c *sessionConfig) { c.run.Seed = seed })
}

// WithCap sets the failure limit in slots (DefaultCap when unset).
func WithCap(capSlots int64) Option {
	return scoped("WithCap", scopeRun, func(c *sessionConfig) { c.run.Cap = capSlots })
}

// WithInitialAllUp starts every processor UP instead of drawing initial
// states from the stationary distribution.
func WithInitialAllUp() Option {
	return scoped("WithInitialAllUp", scopeRun, func(c *sessionConfig) { c.run.InitialAllUp = true })
}

// WithModel selects the ground-truth availability model, overriding the
// platform's (the paper's Markov chains when neither is set).
func WithModel(m AvailabilityModel) Option {
	return scoped("WithModel", scopeRun, func(c *sessionConfig) { c.run.Model = m })
}

// WithAnalytic tunes the Section V evaluator (see AnalyticOptions).
func WithAnalytic(o AnalyticOptions) Option {
	return scoped("WithAnalytic", scopeRun, func(c *sessionConfig) { c.run.Analytic = o })
}

// WithTimeAdvance selects the simulator's time-advance core: the
// production core (AdvanceLeap, the default; AdvanceBatch is the same
// value) or the reference slot-stepped loop (AdvanceSlot). Both produce
// byte-identical results and traces — AdvanceSlot exists as the
// differential oracle and for per-slot instrumentation; the production
// core's cost scales with availability transitions and phase events, and
// in campaigns it shares availability walks and decision builds across a
// cell's instances (a single Run is a trial group of one). Campaign entry
// points take the equivalent knob on the Sweep value (Sweep.Advance). An
// out-of-range value is rejected when the option is applied, never
// silently defaulted.
func WithTimeAdvance(a TimeAdvance) Option {
	return scoped("WithTimeAdvance", scopeRun, func(c *sessionConfig) {
		if err := a.Validate(); err != nil && c.err == nil {
			c.err = fmt.Errorf("tightsched: WithTimeAdvance: %w", err)
		}
		c.run.Advance = a
	})
}

// WithMaxLeap caps one leap macro-step in slots (DefaultMaxLeap when
// unset), bounding the worst-case cancellation latency of a run: contexts
// are polled at macro-step boundaries, so at most MaxLeap slots of bulk
// accounting run between polls. Ignored under AdvanceSlot.
func WithMaxLeap(n int64) Option {
	return scoped("WithMaxLeap", scopeRun, func(c *sessionConfig) { c.run.MaxLeap = n })
}

// WithRecorder captures a per-slot execution trace of a run. It applies
// to Session.Run only: a comparison runs many trials in parallel and has
// no single trace to capture.
func WithRecorder(r *Recorder) Option {
	return scoped("WithRecorder", scopeSessionRun, func(c *sessionConfig) { c.run.Recorder = r })
}

// WithCustomHeuristic runs the given heuristic instance instead of
// resolving a name. It applies to Session.Run only — Compare and sweeps
// take heuristics by name; prefer RegisterHeuristic, which covers those
// too. This hook remains for one-off policies.
func WithCustomHeuristic(h Heuristic) Option {
	return scoped("WithCustomHeuristic", scopeSessionRun, func(c *sessionConfig) { c.run.Custom = h })
}

// WithWorkers bounds the parallel simulations of a campaign (GOMAXPROCS when
// unset). It overrides the sweep's own Workers field when positive, and
// is the only way to bound a ResumeSweep or ResumeOnline, whose sweep is
// rebuilt from the journal spec. A negative count is rejected when the
// entry point runs, never silently defaulted.
func WithWorkers(n int) Option {
	return scoped("WithWorkers", scopeExec|scopeResumeSweep|scopeOnline, func(c *sessionConfig) {
		if n < 0 && c.err == nil {
			c.err = fmt.Errorf("tightsched: WithWorkers: negative worker count %d", n)
		}
		c.workers = n
	})
}

// WithJournal streams every completed campaign instance to the journal
// and skips instances it already holds (resume). It applies to RunSweep
// and Stream; ResumeSweep opens the journal from its path itself.
func WithJournal(j *SweepJournal) Option {
	return scoped("WithJournal", scopeExec, func(c *sessionConfig) { c.journal = j })
}

// WithShard restricts a campaign to one deterministic slice of its
// instance grid. It applies to RunSweep and Stream; ResumeSweep reads
// the shard stamp from the journal file.
func WithShard(sh SweepShard) Option {
	return scoped("WithShard", scopeExec, func(c *sessionConfig) { c.shard = sh })
}

// WithProgress registers a (completed, total) progress callback for
// RunSweep, ResumeSweep, RunOnline and ResumeOnline; on a Stream,
// consume the Progress events instead.
func WithProgress(f func(done, total int)) Option {
	return scoped("WithProgress", scopeConsume|scopeOnline, func(c *sessionConfig) { c.progress = f })
}

// WithObserver registers a typed campaign-event observer for RunSweep
// and ResumeSweep; on a Stream, the events themselves are the delivery.
func WithObserver(o Observer) Option {
	return scoped("WithObserver", scopeConsume, func(c *sessionConfig) { c.observer = o })
}

// WithSink registers a per-instance callback for RunSweep and
// ResumeSweep (post-journal, completion order); a non-nil error aborts
// the campaign, leaving the journal resumable. On a Stream, consume the
// InstanceDone events instead.
func WithSink(f func(SweepInstance) error) Option {
	return scoped("WithSink", scopeConsume, func(c *sessionConfig) { c.sink = f })
}

// WithDiscardInstances drops per-instance results after journal, sink
// and observer delivery in RunSweep and ResumeSweep, bounding memory for
// huge campaigns (a Stream collects nothing to discard). The result's
// Instances is nil, but Tables I–III, Figure 2 and the robustness check
// still render: instances fold into streaming accumulators as they
// complete, holding O(cells) state instead of the full campaign.
func WithDiscardInstances() Option {
	return scoped("WithDiscardInstances", scopeConsume, func(c *sessionConfig) { c.discard = true })
}

// WithOnlineJournal streams every completed online instance to the grid
// journal and skips instances it already holds. It applies to RunOnline;
// ResumeOnline opens the journal from its path itself.
func WithOnlineJournal(j *OnlineJournal) Option {
	return scoped("WithOnlineJournal", scopeRunOnline, func(c *sessionConfig) { c.gridJournal = j })
}

// WithGridTelemetry registers live gauge/counter callbacks (queue depth,
// running applications, deadline misses) invoked from inside the online
// event loops of RunOnline and ResumeOnline — the hook the service
// daemon's /metrics families hang off.
func WithGridTelemetry(t GridTelemetry) Option {
	return scoped("WithGridTelemetry", scopeOnline, func(c *sessionConfig) { c.gridTelemetry = t })
}

// ParseTimeAdvance maps the flag/spec spelling of a time-advance core
// ("leap" or "batch" for the production core, "slot" for the reference
// loop) onto its TimeAdvance value — the single
// parser behind the -advance flags of cmd/tables and cmd/gridsim and the
// run.advance field of the service daemon's campaign specs, so every
// front door accepts exactly the same names.
func ParseTimeAdvance(name string) (TimeAdvance, error) {
	return sim.ParseTimeAdvance(name)
}

// SweepRuntime carries the runtime knobs a SweepSpec deliberately omits
// because they change speed, never results: the time-advance core, the
// macro-step bound, and the per-campaign worker count. The zero value is
// the default configuration (production core, DefaultMaxLeap, GOMAXPROCS
// workers).
type SweepRuntime struct {
	// Advance selects the time-advance core (AdvanceLeap when zero).
	Advance TimeAdvance
	// MaxLeap caps one leap macro-step in slots (DefaultMaxLeap when 0),
	// bounding a run's worst-case cancellation latency.
	MaxLeap int64
	// Workers bounds the campaign's parallel simulations (GOMAXPROCS when 0).
	Workers int
}

// SweepFromSpec is the declarative bridge into the Session campaign
// family: it reconstructs a runnable Sweep from its serialized identity —
// the same SweepSpec contract stamped in journal headers and submitted to
// the service daemon — and applies the runtime knobs the spec omits,
// validated by Sweep.Validate like every other campaign (an out-of-range
// Advance, a negative MaxLeap or a negative Workers is an error, never a
// silent default; models resolve by name through the open registry). The
// returned Sweep is ready for Session.RunSweep or Session.Stream.
func SweepFromSpec(spec SweepSpec, rt SweepRuntime) (Sweep, error) {
	sweep, err := spec.Sweep()
	if err != nil {
		return Sweep{}, err
	}
	sweep.Advance = rt.Advance
	sweep.MaxLeap = rt.MaxLeap
	sweep.Workers = rt.Workers
	if err := sweep.Validate(); err != nil {
		return Sweep{}, err
	}
	return sweep, nil
}

// Event fan-out: one running campaign, many concurrent consumers (the
// service daemon's SSE connections hang off one broadcaster per
// campaign).
type (
	// SweepBroadcaster fans a campaign's event stream out to any number
	// of subscribers; it implements Observer, so it plugs into
	// WithObserver directly. Slow subscribers are dropped, never allowed
	// to backpressure the campaign — see exp.Broadcaster.
	SweepBroadcaster = exp.Broadcaster
	// SweepSubscription is one consumer's channel-backed view of a
	// SweepBroadcaster.
	SweepSubscription = exp.Subscription
)

// NewSweepBroadcaster returns a campaign-event fan-out with the given
// per-subscriber buffer (a sensible default when n <= 0).
func NewSweepBroadcaster(n int) *SweepBroadcaster { return exp.NewBroadcaster(n) }

// Session is the context-aware entry point to the library: simulation,
// comparison, estimation and campaign execution, configured by functional
// options. The zero value (or NewSession with no options) matches the
// paper's defaults. Sessions are cheap; construct one per configuration
// rather than mutating a shared one, and use one Session from multiple
// goroutines freely — all state is per-call.
type Session struct {
	base []Option
}

// NewSession returns a Session whose options apply to every call made
// through it.
func NewSession(opts ...Option) *Session {
	return &Session{base: opts}
}

// config resolves the session-level options plus per-call overrides.
// Session-level options may mix scopes freely (each applies where it is
// meaningful); only per-call options are tracked for scope checking.
func (s *Session) config(opts []Option) sessionConfig {
	var c sessionConfig
	for _, opt := range s.base {
		opt(&c)
	}
	c.applied = nil
	for _, opt := range opts {
		opt(&c)
	}
	return c
}

// check rejects per-call options passed outside the entry point's scope
// — a silently ignored option is a migration bug waiting to be shipped —
// and surfaces invalid option values recorded at application time.
func (c *sessionConfig) check(scope optionScope, call string) error {
	if c.err != nil {
		return c.err
	}
	for _, a := range c.applied {
		if a.scope&scope == 0 {
			return fmt.Errorf("tightsched: option %s does not apply to %s", a.name, call)
		}
	}
	return nil
}

// sweepOptions maps the resolved config onto the experiment harness; the
// WithWorkers override travels in the options so it also bounds resumes,
// whose sweep is rebuilt from the journal spec.
func (c *sessionConfig) sweepOptions() exp.RunOptions {
	return exp.RunOptions{
		Progress:         c.progress,
		Journal:          c.journal,
		Shard:            c.shard,
		Workers:          c.workers,
		Sink:             c.sink,
		Observer:         c.observer,
		DiscardInstances: c.discard,
	}
}

// Run simulates a scenario under the named heuristic. Cancelling ctx
// stops the simulation at the next macro-step boundary (at most
// WithMaxLeap slots away; every slot under AdvanceSlot), returning the
// partial Result together with the context's error.
func (s *Session) Run(ctx context.Context, sc Scenario, heuristic string, opts ...Option) (Result, error) {
	c := s.config(opts)
	if err := c.check(scopeSessionRun, "Session.Run"); err != nil {
		return Result{}, err
	}
	cfg := c.run
	cfg.Platform, cfg.App, cfg.Heuristic = sc.Platform, sc.App, heuristic
	return sim.RunContext(ctx, cfg)
}

// Compare runs several heuristics (the paper's 17 when none are named)
// over shared availability realizations — trial i of every heuristic
// runs under the seed derived from (WithSeed base seed, i) — and
// summarizes each. Runs execute on GOMAXPROCS workers; results are
// deterministic. A cancelled context starts no further runs.
func (s *Session) Compare(ctx context.Context, sc Scenario, heuristics []string, trials int, opts ...Option) ([]HeuristicSummary, error) {
	c := s.config(opts)
	if err := c.check(scopeCompare, "Session.Compare"); err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if trials <= 0 {
		return nil, fmt.Errorf("tightsched: %d trials", trials)
	}
	if len(heuristics) == 0 {
		heuristics = PaperHeuristics()
	}
	base := c.run
	base.Platform, base.App = sc.Platform, sc.App
	// Session-level WithRecorder/WithCustomHeuristic do not apply: a
	// comparison runs named heuristics and has no single trace.
	base.Recorder, base.Custom = nil, nil

	// Job i is trial i%trials of heuristic i/trials.
	results := make([]Result, len(heuristics)*trials)
	errs := make([]error, len(results))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(results)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(results) {
					return
				}
				if errs[i] = ctx.Err(); errs[i] != nil {
					return
				}
				cfg := base
				cfg.Heuristic = heuristics[i/trials]
				cfg.Seed = rng.NewKeyed(c.run.Seed, uint64(i%trials)).Uint64()
				results[i], errs[i] = sim.RunContext(ctx, cfg)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	out := make([]HeuristicSummary, len(heuristics))
	for h, name := range heuristics {
		var makespans []float64
		fails := 0
		var restarts, reconfigs float64
		for _, res := range results[h*trials : (h+1)*trials] {
			if res.Failed {
				fails++
			} else {
				makespans = append(makespans, float64(res.Makespan))
			}
			restarts += float64(res.Restarts)
			reconfigs += float64(res.Reconfigs)
		}
		out[h] = HeuristicSummary{
			Heuristic:     name,
			Fails:         fails,
			Makespan:      stats.Summarize(makespans),
			MeanRestarts:  restarts / float64(trials),
			MeanReconfigs: reconfigs / float64(trials),
		}
	}
	return out, nil
}

// Estimate computes the Section V quantities — P⁺, success probability
// and conditional expected duration — for the given workers of the
// scenario's platform executing w coupled compute slots.
func (s *Session) Estimate(ctx context.Context, sc Scenario, workers []int, w int) (SetEstimate, error) {
	if err := ctx.Err(); err != nil {
		return SetEstimate{}, err
	}
	if err := sc.Validate(); err != nil {
		return SetEstimate{}, err
	}
	if len(workers) == 0 {
		return SetEstimate{}, fmt.Errorf("tightsched: empty worker set")
	}
	for _, q := range workers {
		if q < 0 || q >= sc.Platform.Size() {
			return SetEstimate{}, fmt.Errorf("tightsched: worker %d out of range", q)
		}
	}
	if w <= 0 {
		return SetEstimate{}, fmt.Errorf("tightsched: workload %d", w)
	}
	st := analytic.NewPlatform(sc.Platform.BelievedMatrices(), analytic.DefaultEps).StatsOf(workers)
	return SetEstimate{
		Pplus:            st.Pplus,
		SuccessProb:      st.ProbSuccess(w),
		ExpectedDuration: st.ExpectedCompletion(w),
	}, nil
}

// RunSweep executes a campaign with the session's journal, shard,
// observer and progress options. Cancellation stops the worker pool at
// instance boundaries, journals every instance completed so far and
// returns the context's error; ResumeSweep then reproduces the
// uninterrupted result bit for bit.
func (s *Session) RunSweep(ctx context.Context, sweep Sweep, opts ...Option) (*SweepResult, error) {
	c := s.config(opts)
	if err := c.check(scopeRunSweep, "Session.RunSweep"); err != nil {
		return nil, err
	}
	return exp.Run(ctx, sweep, c.sweepOptions())
}

// Stream executes a campaign and returns its typed event stream
// (InstanceDone / PointDone / Progress), the primitive RunSweep is built
// on: iterate to drive the run, break or cancel ctx to stop it — either
// way the worker pool shuts down without goroutine leaks and an attached
// journal stays resumable. Only the execution options (WithJournal,
// WithShard, WithWorkers) apply; consumption options are subsumed by the
// stream itself.
func (s *Session) Stream(ctx context.Context, sweep Sweep, opts ...Option) iter.Seq2[SweepEvent, error] {
	c := s.config(opts)
	if err := c.check(scopeStream, "Session.Stream"); err != nil {
		return func(yield func(SweepEvent, error) bool) { yield(nil, err) }
	}
	return exp.Stream(ctx, sweep, c.sweepOptions())
}

// ResumeSweep continues an interrupted journaled campaign from its file
// alone, re-running only unrecorded instances; the result is bit-identical
// to an uninterrupted run's. The journal and shard come from the file
// (WithJournal/WithShard do not apply); consumption options do.
func (s *Session) ResumeSweep(ctx context.Context, journalPath string, opts ...Option) (*SweepResult, error) {
	c := s.config(opts)
	if err := c.check(scopeResumeSweep, "Session.ResumeSweep"); err != nil {
		return nil, err
	}
	return exp.Resume(ctx, journalPath, c.sweepOptions())
}

// RunOnline executes an online multi-application campaign — arrival
// streams feeding admission and preemption policies on a shared
// heterogeneous grid — and returns its per-instance SLO metrics as a
// SweepResult whose Grid field carries the online aggregation
// (SweepResult.Grid.TableIV, RenderTableArtifact table 4). The campaign
// axes are the OnlineSweep's own fields; WithOnlineJournal streams
// completed instances for crash-tolerant resume via ResumeOnline.
// Cancellation stops the worker pool at instance boundaries, journals
// everything completed so far, and returns the context's error.
func (s *Session) RunOnline(ctx context.Context, g OnlineSweep, opts ...Option) (*SweepResult, error) {
	c := s.config(opts)
	if err := c.check(scopeRunOnline, "Session.RunOnline"); err != nil {
		return nil, err
	}
	if c.workers > 0 {
		g.Workers = c.workers
	}
	gr, err := exp.RunGrid(ctx, g, c.gridJournal, c.progress, c.gridTelemetry)
	if err != nil {
		return nil, err
	}
	return &SweepResult{Grid: gr}, nil
}

// ResumeOnline continues an interrupted journaled online campaign from
// its file alone, re-running only unrecorded instances; the result is
// bit-identical to an uninterrupted run's. The campaign axes come from
// the journal header (WithOnlineJournal does not apply); WithWorkers,
// WithProgress and WithGridTelemetry do.
func (s *Session) ResumeOnline(ctx context.Context, journalPath string, opts ...Option) (*SweepResult, error) {
	c := s.config(opts)
	if err := c.check(scopeResumeOnline, "Session.ResumeOnline"); err != nil {
		return nil, err
	}
	gr, err := exp.ResumeGrid(ctx, journalPath, c.workers, c.progress, c.gridTelemetry)
	if err != nil {
		return nil, err
	}
	return &SweepResult{Grid: gr}, nil
}

// Package exp is the experiment harness for Section VII: it generates the
// paper's synthetic scenario space, runs every (scenario, trial,
// heuristic) instance through the simulator — in parallel across
// goroutines with independent deterministic seeds — and aggregates the
// paper's metrics (#fails, %diff, %wins, %wins30, stdv) into Table I,
// Table II and the Figure 2 series.
package exp

import (
	"context"
	"fmt"
	"sort"

	"tightsched/internal/analytic"
	"tightsched/internal/app"
	"tightsched/internal/avail"
	"tightsched/internal/platform"
	"tightsched/internal/rng"
	"tightsched/internal/sched"
	"tightsched/internal/sim"
)

// Sweep describes one experimental campaign (Section VII.A).
type Sweep struct {
	// M is the number of tasks per iteration (the paper uses 5 and 10).
	M int
	// Ncoms are the master communication capacities to sweep ({5,10,20}).
	Ncoms []int
	// Wmins are the minimum per-task speeds to sweep ({1..10}); for each,
	// w_q ~ U[wmin, 10·wmin], Tdata = wmin, Tprog = 5·wmin.
	Wmins []int
	// Scenarios is the number of random scenarios per (ncom, wmin) point.
	Scenarios int
	// Trials is the number of availability realizations per scenario.
	Trials int
	// P is the platform size (the paper uses 20).
	P int
	// Iterations is the number of application iterations (10).
	Iterations int
	// Cap is the failure limit in slots (the paper uses 1,000,000).
	Cap int64
	// Seed is the master seed; everything else derives from it.
	Seed uint64
	// Heuristics to run (sched.Names() when nil).
	Heuristics []string
	// Models are the ground-truth availability models to sweep (the
	// paper's Markov chains when nil). Every (point, trial, heuristic)
	// instance runs once per model, so one campaign compares heuristics
	// across Markov and model-violating availability; model names must
	// be distinct. Seed-insensitive models (avail.TraceModel) repeat the
	// same realization every trial — use Trials = 1 with those. See
	// internal/avail.
	Models []avail.Model
	// Workers bounds the number of parallel simulations (GOMAXPROCS when
	// 0).
	Workers int
	// InitialAllUp starts processors UP instead of at stationarity.
	InitialAllUp bool
	// Advance selects the simulator's time-advance core: the production
	// trial-group loop when zero, or sim.AdvanceSlot, the slot-stepped
	// oracle the in-module differential tests force. Both cores produce
	// byte-identical instances, so it is absent from SweepSpec.
	//
	// Deprecated: leave it zero. Only in-module tests, which can name
	// sim.AdvanceSlot, select anything else.
	Advance sim.TimeAdvance
}

// PaperSweep returns the full Section VII campaign for m tasks:
// 3 ncom × 10 wmin × 10 scenarios × 10 trials = 3,000 instances, each run
// under all 17 heuristics. This is hours of CPU; see QuickSweep.
func PaperSweep(m int) Sweep {
	return Sweep{
		M:          m,
		Ncoms:      []int{5, 10, 20},
		Wmins:      []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		Scenarios:  10,
		Trials:     10,
		P:          20,
		Iterations: 10,
		Cap:        sim.DefaultCap,
		Seed:       20130522, // HCW 2013
	}
}

// QuickSweep returns a reduced campaign that preserves the sweep's shape
// (all three ncom values, the full wmin range) at a fraction of the cost:
// fewer scenarios/trials and a lower failure cap. Rankings of the leading
// heuristics are stable at this scale; absolute %diff values are noisier.
func QuickSweep(m int) Sweep {
	s := PaperSweep(m)
	s.Scenarios = 2
	s.Trials = 2
	s.Cap = 100_000
	return s
}

// Validate checks the campaign parameters.
func (s *Sweep) Validate() error {
	if s.M <= 0 || s.P <= 0 || s.Iterations <= 0 || s.Cap <= 0 {
		return fmt.Errorf("exp: invalid sweep %+v", s)
	}
	if len(s.Ncoms) == 0 || len(s.Wmins) == 0 || s.Scenarios <= 0 || s.Trials <= 0 {
		return fmt.Errorf("exp: empty sweep dimensions %+v", s)
	}
	// Names resolve through the open registry, so heuristics plugged in
	// via sched.Register are first-class sweep axes.
	for _, h := range s.heuristics() {
		if _, ok := sched.Lookup(h); !ok {
			return fmt.Errorf("exp: unknown heuristic %q", h)
		}
	}
	seen := map[string]bool{}
	for i, m := range s.Models {
		if m == nil {
			return fmt.Errorf("exp: nil model at index %d", i)
		}
		if seen[m.Name()] {
			return fmt.Errorf("exp: duplicate model name %q", m.Name())
		}
		seen[m.Name()] = true
	}
	// Advance is a runtime knob, but an out-of-range value must fail here
	// — at campaign validation — rather than on the first instance deep
	// inside a worker (or, worse, fall back to a default core).
	if err := s.Advance.Validate(); err != nil {
		return err
	}
	if s.Workers < 0 {
		return fmt.Errorf("exp: negative workers %d", s.Workers)
	}
	return nil
}

func (s *Sweep) heuristics() []string {
	if len(s.Heuristics) > 0 {
		return s.Heuristics
	}
	return sched.Names()
}

// models returns the availability-model axis (the implicit Markov ground
// truth when none is set).
func (s *Sweep) models() []avail.Model {
	if len(s.Models) > 0 {
		return s.Models
	}
	return []avail.Model{avail.MarkovModel{}}
}

// model returns the model-axis entry of the given name.
func (s *Sweep) model(name string) avail.Model {
	for _, m := range s.models() {
		if m.Name() == name {
			return m
		}
	}
	return nil
}

// InstanceCount returns the number of (model, point, scenario, trial)
// instances, not counting the heuristic dimension.
func (s *Sweep) InstanceCount() int {
	return len(s.models()) * len(s.Ncoms) * len(s.Wmins) * s.Scenarios * s.Trials
}

// Coord identifies one (model, point, trial) instance of the sweep grid:
// the unit of sharding and journal bookkeeping (the heuristic dimension
// fans out within a coordinate, so every shard carries complete
// same-realization heuristic comparisons).
type Coord struct {
	Model string
	Point Point
	Trial int
}

// Coords enumerates the instance grid in canonical order (model, ncom,
// wmin, scenario, trial — model-major in Models order).
func (s *Sweep) Coords() []Coord {
	out := make([]Coord, 0, s.InstanceCount())
	for _, m := range s.models() {
		name := m.Name()
		for _, ncom := range s.Ncoms {
			for _, wmin := range s.Wmins {
				for sc := 0; sc < s.Scenarios; sc++ {
					for tr := 0; tr < s.Trials; tr++ {
						out = append(out, Coord{name, Point{ncom, wmin, sc}, tr})
					}
				}
			}
		}
	}
	return out
}

// Point identifies one scenario draw within the sweep.
type Point struct {
	Ncom     int
	Wmin     int
	Scenario int
}

// InstanceResult is the outcome of one (model, point, trial, heuristic)
// run.
type InstanceResult struct {
	Point Point
	Trial int
	// Model is the availability model's name ("markov" for the implicit
	// default).
	Model     string
	Heuristic string
	Makespan  int64
	Failed    bool
}

// Result holds the raw outcomes of a campaign: offline sweeps fill
// Sweep/Instances, online grid campaigns fill Grid. One result type
// flows through the session, the daemon and the table renderer, so
// Table IV serves from the same pipeline as Tables I–III.
type Result struct {
	Sweep     Sweep
	Instances []InstanceResult
	// Grid carries an online (Table IV) campaign's outcomes; nil for
	// the paper's offline sweeps.
	Grid *GridResult
	// agg holds the streaming accumulators of aggregation-only results
	// (journal replay, DiscardInstances runs), whose Instances stays nil;
	// lazily initialized, shared by value copies. Results that carry
	// Instances leave it nil and walk them again for every table (see
	// aggFor).
	agg *resultAgg
}

// scenarioPlatform deterministically regenerates the platform of a point.
func (s *Sweep) scenarioPlatform(pt Point) *platform.Platform {
	stream := rng.NewKeyed(s.Seed, uint64(s.M), uint64(pt.Ncom), uint64(pt.Wmin), uint64(pt.Scenario))
	cfg := platform.PaperConfig{P: s.P, Wmin: pt.Wmin, Ncom: pt.Ncom, StayLo: 0.90, StayHi: 0.99}
	return platform.GeneratePaper(cfg, stream)
}

// TrialSeed derives the availability seed of one (point, trial) instance
// from the master seed. It does not depend on the heuristic — every
// heuristic sees the same realization — and it is the single derivation
// the cell dispatch (runCell) and external tooling share, so a sweep
// cannot drift from a solo run's seed schedule.
func (s *Sweep) TrialSeed(pt Point, trial int) uint64 {
	return rng.NewKeyed(s.Seed, 0x7e57, uint64(s.M), uint64(pt.Ncom),
		uint64(pt.Wmin), uint64(pt.Scenario), uint64(trial)).Uint64()
}

// TrialStream returns the deterministic RNG stream of trial i under a
// master seed: the per-trial derivation used outside the sweep grid,
// where there is no Point to key on (cmd/offline's instance generators
// draw from it directly; Session.Compare in the root package derives its
// per-trial sim seeds the same way).
func TrialStream(master uint64, trial int) *rng.Stream {
	return rng.NewKeyed(master, uint64(trial))
}

// application returns the application of a point (Tdata = wmin,
// Tprog = 5·wmin, so the fastest possible processor has a
// computation-to-communication ratio of 1, per Section VII.A).
func (s *Sweep) application(wmin int) app.Application {
	return app.Application{
		Tasks:      s.M,
		Tprog:      5 * wmin,
		Tdata:      wmin,
		Iterations: s.Iterations,
	}
}

// runCell executes the given instances of one (model, point) cell as a
// single lockstep batch (sim.RunBatch): the sweep's dispatch unit. Seeds
// come from the TrialSeed schedule, so each returned InstanceResult is
// byte-identical to a solo run of the instance; results are returned in
// keys order along with the cell's cache-effectiveness counters. Model
// hooks run arbitrary plugged-in code (e.g. a TraceModel panicking on a
// platform size mismatch); a panic is converted into an error so the
// campaign fails cleanly instead of crashing the worker pool.
//
// cache is the calling worker's analytic platform cache: the trials and
// heuristics of one sweep point share a believed matrix set, so routing
// them through one goroutine-confined cache reuses eigendecompositions,
// series constants and the whole membership→SetStats memo across runs.
// Memoized statistics are canonical, so results are bit-identical to
// cache-free execution whatever the job interleaving — the cross-worker
// determinism test pins this.
func runCell(ctx context.Context, s *Sweep, keys []Key, cache *analytic.PlatformCache) (out []InstanceResult, cst *CacheStats, err error) {
	pk := keys[0].cell()
	defer func() {
		if p := recover(); p != nil {
			out, cst = nil, nil
			err = fmt.Errorf("exp: model %s, point %+v, cell: panic: %v",
				pk.Model, pk.Point, p)
		}
	}()
	base := sim.Config{
		Platform:      s.scenarioPlatform(pk.Point),
		App:           s.application(pk.Point.Wmin),
		Cap:           s.Cap,
		InitialAllUp:  s.InitialAllUp,
		Model:         s.model(pk.Model),
		AnalyticCache: cache,
		Advance:       s.Advance,
	}
	insts := make([]sim.BatchInstance, len(keys))
	for i, k := range keys {
		insts[i] = sim.BatchInstance{Heuristic: k.Heuristic, Seed: s.TrialSeed(pk.Point, k.Trial)}
	}
	results, stats, err := sim.RunBatch(ctx, base, insts)
	if err != nil {
		return nil, nil, err
	}
	out = make([]InstanceResult, len(results))
	for i, r := range results {
		out[i] = InstanceResult{
			Point:     pk.Point,
			Trial:     keys[i].Trial,
			Model:     pk.Model,
			Heuristic: keys[i].Heuristic,
			Makespan:  r.Makespan,
			Failed:    r.Failed,
		}
	}
	return out, newCacheStats(stats), nil
}

// RunOptions tune campaign execution beyond the Sweep itself: journaling,
// resuming, sharding, and streaming consumption. The zero value is a
// plain in-memory run.
//
// The consumption fields (Progress, Sink, Observer, DiscardInstances)
// apply to Run and Resume, which are built on the Stream event
// iterator; Stream itself ignores them — its events are the delivery
// mechanism.
type RunOptions struct {
	// Progress receives (completed, total) counts, including instances
	// skipped because they were already journaled. It is called from a
	// single goroutine.
	Progress func(done, total int)
	// Journal streams every completed instance to an append-only file
	// and skips instances the journal already holds (resume). The
	// journal must have been created or opened for this sweep (and this
	// shard): specs are checked.
	Journal *Journal
	// Shard restricts the run to one deterministic slice of the
	// instance grid (see Sweep.Shard). The zero value runs everything.
	Shard Shard
	// Workers, when positive, overrides the sweep's worker-pool bound —
	// the only way to bound a Resume, whose sweep is rebuilt from the
	// journal spec (which deliberately omits runtime knobs).
	Workers int
	// Sink, when set, receives every completed instance as it finishes
	// (after journaling), in completion order, from a single goroutine.
	// Instances replayed from the journal are not re-delivered. A
	// non-nil error aborts the campaign — already-journaled work
	// survives for a later Resume.
	Sink func(InstanceResult) error
	// Observer, when set, receives every typed campaign event
	// (InstanceDone, PointDone, Progress) from a single goroutine.
	Observer Observer
	// DiscardInstances drops per-instance results after journal/sink
	// delivery instead of collecting them, bounding memory for huge
	// campaigns. The returned Result has nil Instances but still renders
	// Tables I–III, Figure 2 and the failure-dominance check (for
	// ReferenceHeuristic): every instance is folded into streaming
	// accumulators as it completes, holding O(cells) plus 4 bytes a
	// coordinate — not the instances — in memory.
	DiscardInstances bool
}

// Run executes the campaign by consuming the Stream event iterator.
// Instances are distributed over a worker pool; results are deterministic
// and order-independent. Completed instances are streamed — journaled,
// handed to the sink, and (unless discarded) collected — as they finish
// rather than gathered at the end. Cancellation is checked at instance
// boundaries in the worker pool and at macro-step boundaries inside each
// simulation; every already completed instance is journaled before the
// campaign returns, and the returned error is the context's. The journal
// is left resumable: a later Resume re-runs only what was lost in flight
// and reproduces the uninterrupted result bit for bit.
func Run(ctx context.Context, sweep Sweep, opts RunOptions) (*Result, error) {
	var collected []InstanceResult
	var acc *tableAccumulator
	if opts.DiscardInstances {
		// Streaming aggregation in place of collection: groups close as
		// each coordinate's heuristics complete, keeping memory O(cells)
		// plus 4 bytes a coordinate of the shard.
		spec := sweep.Spec()
		acc = newTableAccumulator(ReferenceHeuristic, &spec, opts.Shard)
	}
	for ev, err := range Stream(ctx, sweep, opts) {
		if err != nil {
			return nil, err
		}
		switch ev := ev.(type) {
		case InstanceDone:
			if acc != nil {
				acc.add(ev.Instance, -1)
			} else {
				collected = append(collected, ev.Instance)
			}
			if !ev.Replayed && opts.Sink != nil {
				if err := opts.Sink(ev.Instance); err != nil {
					return nil, err
				}
			}
			if opts.Observer != nil {
				opts.Observer.OnInstanceDone(ev)
			}
		case PointDone:
			if opts.Observer != nil {
				opts.Observer.OnPointDone(ev)
			}
		case Progress:
			if opts.Progress != nil {
				opts.Progress(ev.Completed, ev.Total)
			}
			if opts.Observer != nil {
				opts.Observer.OnProgress(ev)
			}
		}
	}
	sortInstances(collected)
	res := &Result{Sweep: sweep, Instances: collected}
	if acc != nil {
		res.preseedAgg(ReferenceHeuristic, acc)
	}
	return res, nil
}

// sortInstances orders results by (model name, point, trial, heuristic) —
// a full total order, keeping Instances deterministic regardless of
// worker count, Models ordering, or resume/merge history.
func sortInstances(results []InstanceResult) {
	sort.SliceStable(results, func(a, b int) bool {
		ra, rb := results[a], results[b]
		if ra.Model != rb.Model {
			return ra.Model < rb.Model
		}
		if ra.Point != rb.Point {
			if ra.Point.Ncom != rb.Point.Ncom {
				return ra.Point.Ncom < rb.Point.Ncom
			}
			if ra.Point.Wmin != rb.Point.Wmin {
				return ra.Point.Wmin < rb.Point.Wmin
			}
			return ra.Point.Scenario < rb.Point.Scenario
		}
		if ra.Trial != rb.Trial {
			return ra.Trial < rb.Trial
		}
		return ra.Heuristic < rb.Heuristic
	})
}

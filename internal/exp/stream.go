package exp

import (
	"context"
	"errors"
	"iter"
	"runtime"
	"sync"

	"tightsched/internal/analytic"
	"tightsched/internal/avail"
	"tightsched/internal/sim"
)

// This file is the streamed campaign-event API: Stream runs a sweep's
// worker pool and delivers completions as a Go 1.23+ range-over-func
// iterator instead of a callback, which is what Run, Resume and the
// façade Session are built on. Three event kinds flow, all emitted
// from the consumer's goroutine in completion order:
//
//   - InstanceDone — one (model, point, trial, heuristic) result, already
//     journaled when a journal is attached;
//   - PointDone — every instance of one (model, point) cell has finished,
//     the granularity at which partial tables become meaningful;
//   - Progress — completion counters, emitted after each live instance
//     and once after journal replay.
//
// Breaking out of the loop (or cancelling the context) shuts the pool
// down without leaking goroutines and leaves any journal resumable.

// Event is one item of a campaign's event stream. The concrete types are
// InstanceDone, PointDone and Progress.
type Event interface{ sweepEvent() }

// InstanceDone carries one completed instance. Completed/Total count
// instances, including journal-replayed ones.
type InstanceDone struct {
	Instance InstanceResult
	// Replayed marks an instance recovered from the journal rather than
	// simulated in this run (resume skips recorded work).
	Replayed  bool
	Completed int
	Total     int
}

// PointDone signals that every (trial, heuristic) instance of one
// (model, point) cell has completed — the unit at which same-realization
// heuristic comparisons are complete.
type PointDone struct {
	Model           string
	Point           Point
	CompletedPoints int
	TotalPoints     int
	// Cache reports the cell's cross-instance cache effectiveness when it
	// ran as a lockstep batch (Sweep.Advance == sim.AdvanceBatch); nil
	// under the sequential dispatch, and nil for cells fully replayed
	// from a journal. When a batched cell is partially replayed the
	// counters cover only the live part.
	Cache *CacheStats
}

// CacheStats is the cross-instance sharing summary of one batched cell:
// the analytic set-statistics memo traffic (cross-trial SetKey sharing)
// and the shared greedy-build cache traffic (decision equivalence
// classes). Every decision miss is one equivalence-class representative
// actually built; the mean class size is (hits+misses)/misses.
type CacheStats struct {
	// MemoHits/MemoMisses count set-statistics memo lookups during the
	// cell; MemoEntries is the number of distinct memoized sets held by
	// the worker's platform afterwards.
	MemoHits    uint64
	MemoMisses  uint64
	MemoEntries int
	// DecisionHits/DecisionMisses count shared-build lookups;
	// DecisionClasses is the number of distinct decision classes held
	// when the cell finished.
	DecisionHits    uint64
	DecisionMisses  uint64
	DecisionClasses int
	// DecisionReplays counts the misses whose every greedy step picked
	// the building instance's previous winner; CandidatesScored and
	// CandidatesReused split the misses' candidate Values into computed
	// ones and ones replayed from the instance's previous build.
	DecisionReplays  uint64
	CandidatesScored uint64
	CandidatesReused uint64
}

// newCacheStats converts the simulator's batch counters.
func newCacheStats(st sim.BatchStats) *CacheStats {
	return &CacheStats{
		MemoHits:         st.Memo.Hits,
		MemoMisses:       st.Memo.Misses,
		MemoEntries:      st.Memo.Entries,
		DecisionHits:     st.Decisions.Hits,
		DecisionMisses:   st.Decisions.Misses,
		DecisionClasses:  st.Decisions.Classes,
		DecisionReplays:  st.Decisions.Replays,
		CandidatesScored: st.Decisions.CandidatesScored,
		CandidatesReused: st.Decisions.CandidatesReused,
	}
}

// Add accumulates another cell's counters (for campaign-wide summaries).
func (c *CacheStats) Add(o CacheStats) {
	c.MemoHits += o.MemoHits
	c.MemoMisses += o.MemoMisses
	if o.MemoEntries > c.MemoEntries {
		c.MemoEntries = o.MemoEntries
	}
	c.DecisionHits += o.DecisionHits
	c.DecisionMisses += o.DecisionMisses
	if o.DecisionClasses > c.DecisionClasses {
		c.DecisionClasses = o.DecisionClasses
	}
	c.DecisionReplays += o.DecisionReplays
	c.CandidatesScored += o.CandidatesScored
	c.CandidatesReused += o.CandidatesReused
}

// Progress reports completion counters: it follows every live
// InstanceDone, plus one summary event after journal replay.
type Progress struct {
	Completed int
	Total     int
}

func (InstanceDone) sweepEvent() {}
func (PointDone) sweepEvent()    {}
func (Progress) sweepEvent()     {}

// Observer receives typed campaign events. Run and Resume invoke it
// from a single goroutine, in completion order; implementations need no
// internal locking.
type Observer interface {
	OnInstanceDone(InstanceDone)
	OnPointDone(PointDone)
	OnProgress(Progress)
}

// pointKey identifies one (model, point) cell of the grid.
type pointKey struct {
	Model string
	Point Point
}

// Stream executes the campaign and returns its event stream. Iteration
// drives the run: the worker pool simulates instances concurrently while
// events are yielded — journaled first, when opts.Journal is set — on the
// consumer's goroutine in completion order. The stream is single-use.
//
// Cancelling ctx stops the campaign at instance boundaries (and mid-run
// at macro-step boundaries); the stream then ends with the context's error.
// Breaking out of the loop early cancels the same way but yields no
// error, per the iterator contract. Either way no goroutines are leaked
// and an attached journal holds every completed instance, so a later
// Resume reproduces the uninterrupted result bit for bit.
//
// Only the execution fields of opts (Journal, Shard, Workers) apply
// here; the consumption fields (Progress, Sink, Observer,
// DiscardInstances) belong to Run and Resume, for which the stream
// itself is the delivery mechanism.
func Stream(ctx context.Context, sweep Sweep, opts RunOptions) iter.Seq2[Event, error] {
	return func(yield func(Event, error) bool) {
		if err := sweep.Validate(); err != nil {
			yield(nil, err)
			return
		}
		if err := opts.Shard.Validate(); err != nil {
			yield(nil, err)
			return
		}
		if opts.Journal != nil {
			if err := opts.Journal.matches(sweep.Spec(), opts.Shard); err != nil {
				yield(nil, err)
				return
			}
		}
		heuristics := sweep.heuristics()
		modelByName := map[string]avail.Model{}
		for _, m := range sweep.models() {
			modelByName[m.Name()] = m
		}

		// Under the batch core the dispatch unit widens from one
		// (coord, heuristic) instance to one (model, point) cell: every
		// live (trial, heuristic) pair of the cell runs as a single
		// lockstep batch on one worker, sharing availability walks and
		// decision builds. Journal records and events stay per-instance
		// either way.
		batch := sweep.Advance == sim.AdvanceBatch
		type job struct {
			c Coord
			h string
			// pairs holds a batched cell's live work; empty for a
			// sequential single-instance job.
			pairs []cellPair
		}
		var jobs []job
		var prior []InstanceResult
		liveCount := 0
		remaining := map[pointKey]int{}
		for idx, c := range sweep.Coords() {
			if !opts.Shard.Covers(idx) {
				continue
			}
			for _, h := range heuristics {
				remaining[pointKey{c.Model, c.Point}]++
				if opts.Journal != nil {
					if inst, ok := opts.Journal.Done(Key{c.Model, c.Point.Ncom, c.Point.Wmin, c.Point.Scenario, c.Trial, h}); ok {
						prior = append(prior, inst)
						continue
					}
				}
				liveCount++
				if batch {
					// Coords enumerate trials of a cell contiguously, so
					// the current cell is always the last job (if any).
					if n := len(jobs); n == 0 || jobs[n-1].c.Model != c.Model || jobs[n-1].c.Point != c.Point {
						jobs = append(jobs, job{c: Coord{Model: c.Model, Point: c.Point, Trial: -1}})
					}
					last := &jobs[len(jobs)-1]
					last.pairs = append(last.pairs, cellPair{trial: c.Trial, h: h})
					continue
				}
				jobs = append(jobs, job{c: c, h: h})
			}
		}
		total := liveCount + len(prior)
		totalPoints := len(remaining)
		completed, completedPoints := 0, 0

		// cellStats holds batched cells' cache counters until their
		// PointDone fires.
		cellStats := map[pointKey]*CacheStats{}

		// emitInstance yields the InstanceDone event (and the PointDone
		// it may complete) and reports whether the consumer wants more.
		emitInstance := func(inst InstanceResult, replayed bool) bool {
			completed++
			if !yield(InstanceDone{Instance: inst, Replayed: replayed, Completed: completed, Total: total}, nil) {
				return false
			}
			pk := pointKey{modelName(inst), inst.Point}
			remaining[pk]--
			if remaining[pk] == 0 {
				completedPoints++
				if !yield(PointDone{Model: pk.Model, Point: pk.Point,
					CompletedPoints: completedPoints, TotalPoints: totalPoints,
					Cache: cellStats[pk]}, nil) {
					return false
				}
				delete(cellStats, pk)
			}
			return true
		}

		// Journal replay first, in canonical order, then one summary
		// Progress event — resuming consumers see recorded work exactly
		// once without a per-instance progress storm. Replay honors
		// cancellation at instance boundaries like the live pool does, so
		// a cancelled campaign never masquerades as a completed one even
		// when everything is already journaled.
		sortInstances(prior)
		for _, inst := range prior {
			if err := ctx.Err(); err != nil {
				yield(nil, err)
				return
			}
			if !emitInstance(inst, true) {
				return
			}
		}
		if len(prior) > 0 {
			if !yield(Progress{Completed: completed, Total: total}, nil) {
				return
			}
		}

		workers := sweep.Workers
		if opts.Workers > 0 {
			workers = opts.Workers
		}
		// packet carries one completed instance to the collector; batched
		// cells attach their cache counters to every instance, and the
		// collector keeps the last seen per cell.
		type packet struct {
			inst  InstanceResult
			cache *CacheStats
		}
		newRun := func() poolRun[job, packet] {
			cache := analytic.NewPlatformCache()
			return func(ctx context.Context, j job, emit func(packet)) error {
				if len(j.pairs) > 0 {
					insts, cst, err := runCell(ctx, &sweep, modelByName[j.c.Model], j.c.Model, j.c.Point, j.pairs, cache)
					for _, inst := range insts {
						emit(packet{inst: inst, cache: cst})
					}
					return err
				}
				res, err := runInstance(ctx, &sweep, modelByName[j.c.Model], j.c.Point, j.c.Trial, j.h, cache)
				if err == nil {
					emit(packet{inst: InstanceResult{Point: j.c.Point, Trial: j.c.Trial, Model: j.c.Model,
						Heuristic: j.h, Makespan: res.Makespan, Failed: res.Failed}})
				}
				return err
			}
		}
		// The iterator's caller is the collector: journal appends happen
		// here, before the event is yielded, so every instance a consumer
		// observes is already durable.
		err := runPool(ctx, workers, jobs, newRun, func(pk packet) error {
			inst := pk.inst
			if pk.cache != nil {
				cellStats[pointKey{modelName(inst), inst.Point}] = pk.cache
			}
			if opts.Journal != nil {
				if err := opts.Journal.Append(inst); err != nil {
					return err
				}
			}
			if !emitInstance(inst, false) || !yield(Progress{Completed: completed, Total: total}, nil) {
				return errStopped
			}
			return nil
		})
		if errors.Is(err, errStopped) {
			return // the consumer broke out: yield must not be called again
		}
		// Surface a worker or journal error, or the cancellation that cut
		// the campaign short.
		if err == nil && completed < total {
			err = ctx.Err()
		}
		if err != nil {
			yield(nil, err)
		}
	}
}

// poolRun runs one job on a pool worker, handing each of its results to
// emit. An error that is not a cancellation fails the whole pool.
type poolRun[J, R any] func(ctx context.Context, job J, emit func(R)) error

// errStopped is what a collector returns to stop the pool when nothing
// went wrong (a Stream consumer broke out of its loop).
var errStopped = errors.New("exp: campaign stopped by its consumer")

// runPool is the campaign worker pool behind Stream and RunGridContext.
// It runs jobs on up to workers goroutines (GOMAXPROCS when workers <=
// 0); each goroutine gets its own run from newRun, so per-worker state
// such as an analytic cache stays goroutine-confined. collect receives
// every result on the calling goroutine, in completion order; an error
// from it stops the pool and is returned.
//
// Cancelling ctx stops the pool at job boundaries: no worker starts a
// job once ctx is done, and a result emitted after that may be dropped.
// Otherwise runPool returns the first run error that is not a
// cancellation, and nil when there is none — a pool cut short by ctx is
// for the caller, who knows how many results it expected, to report.
// Either way no goroutine outlives the call.
func runPool[J, R any](ctx context.Context, workers int, jobs []J, newRun func() poolRun[J, R], collect func(R) error) error {
	if len(jobs) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(jobs))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobCh := make(chan J)
	// One slot per worker: a worker that finishes a job hands its result
	// over and starts the next without waiting for the collector.
	resCh := make(chan R, workers)
	errCh := make(chan error, 1)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := newRun()
			emit := func(r R) {
				select {
				case resCh <- r:
				case <-ctx.Done():
				}
			}
			for j := range jobCh {
				// Instance boundary: a cancelled campaign starts no new
				// simulations.
				if ctx.Err() != nil {
					return
				}
				if err := run(ctx, j, emit); err != nil {
					// A run aborted by cancellation is not a campaign
					// failure; the caller reports the context's error.
					if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
						select {
						case errCh <- err:
						default:
						}
					}
					cancel()
					return
				}
			}
		}()
	}
	go func() { // feeder
		defer close(jobCh)
		for _, j := range jobs {
			select {
			case jobCh <- j:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() { // closer: resCh ends exactly when the pool has exited
		wg.Wait()
		close(resCh)
	}()
	for r := range resCh {
		if err := collect(r); err != nil {
			// Shutdown: stop the pool and block until every worker has
			// exited. Results still queued are dropped uncollected — a
			// later resume re-runs exactly those.
			cancel()
			for range resCh {
			}
			return err
		}
	}
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

package exp

import (
	"context"
	"errors"
	"iter"
	"sync"

	"tightsched/internal/analytic"
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
	// Cache reports the cell's cross-instance cache effectiveness; nil
	// for cells fully replayed from a journal. When a cell is partially
	// replayed the counters cover only the live part. Under the slot
	// reference (Sweep.Advance == sim.AdvanceSlot) nothing shares greedy
	// builds, so the decision counters are zero.
	Cache *CacheStats
}

// CacheStats is the cross-instance sharing summary of one cell:
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
	// CandidatesReused split the misses' candidate Values into ones the
	// build trace did not serve and ones replayed from the instance's
	// previous build.
	DecisionReplays  uint64
	CandidatesScored uint64
	CandidatesReused uint64
	// ValueMemoLookups counts the scored candidates looked up in the
	// batch's candidate-Value memo; ValueMemoHits those it already held.
	ValueMemoHits    uint64
	ValueMemoLookups uint64
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
		ValueMemoHits:    st.Decisions.ValueMemoHits,
		ValueMemoLookups: st.Decisions.ValueMemoLookups,
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
	c.ValueMemoHits += o.ValueMemoHits
	c.ValueMemoLookups += o.ValueMemoLookups
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
		coords := sweep.Coords()
		keys := make([]Key, 0, len(coords)*len(heuristics))
		for _, c := range coords {
			for _, h := range heuristics {
				keys = append(keys, Key{c.Model, c.Point.Ncom, c.Point.Wmin, c.Point.Scenario, c.Trial, h})
			}
		}
		workers := sweep.Workers
		if opts.Workers > 0 {
			workers = opts.Workers
		}

		// The dispatch unit is one (model, point) cell: every live
		// (trial, heuristic) pair of the cell runs as a single lockstep
		// batch on one worker, sharing availability walks and decision
		// builds. Journal records and events stay per-instance.
		// cellStats holds cells' cache counters, stored by the worker
		// that ran the cell, until the cell's PointDone.
		var cellStats sync.Map // pointKey → *CacheStats
		c := campaign[Key, InstanceResult, SweepSpec, []Key]{
			journal: opts.Journal,
			keys:    keys,
			unit:    len(heuristics),
			shard:   opts.Shard,
			workers: workers,
			newRun: func() poolRun[[]Key, InstanceResult] {
				cache := analytic.NewPlatformCache()
				return func(ctx context.Context, job []Key, emit func(InstanceResult)) error {
					insts, cst, err := runCell(ctx, &sweep, job, cache)
					if cst != nil {
						cellStats.Store(job[0].cell(), cst)
					}
					for _, inst := range insts {
						emit(inst)
					}
					return err
				}
			},
		}
		// remaining counts each cell's undelivered instances, for
		// PointDone.
		remaining := map[pointKey]int{}
		completedPoints := 0
		err := c.run(ctx,
			func(planned, live []Key) [][]Key {
				for _, k := range planned {
					remaining[k.cell()]++
				}
				return sweepJobs(live)
			},
			func(inst InstanceResult, replayed bool, done, total int) bool {
				if !yield(InstanceDone{Instance: inst, Replayed: replayed, Completed: done, Total: total}, nil) {
					return false
				}
				pk := pointKey{modelName(inst), inst.Point}
				if remaining[pk]--; remaining[pk] > 0 {
					return true
				}
				completedPoints++
				cst, _ := cellStats.LoadAndDelete(pk)
				ev := PointDone{Model: pk.Model, Point: pk.Point,
					CompletedPoints: completedPoints, TotalPoints: len(remaining)}
				ev.Cache, _ = cst.(*CacheStats)
				return yield(ev, nil)
			},
			func(done, total int) bool {
				return yield(Progress{Completed: done, Total: total}, nil)
			})
		// A worker or journal error, or the cancellation that cut the
		// campaign short, ends the stream; a consumer that broke out
		// must not be yielded to again.
		if err != nil && !errors.Is(err, errStopped) {
			yield(nil, err)
		}
	}
}

// cell returns the (model, point) cell of a sweep key.
func (k Key) cell() pointKey {
	return pointKey{k.Model, Point{k.Ncom, k.Wmin, k.Scenario}}
}

// sweepJobs groups a sweep's live keys into pool jobs, one (model,
// point) cell per job. Coords enumerate a cell's trials contiguously, so
// a cell is a run of consecutive keys; jobs are subslices of live.
func sweepJobs(live []Key) [][]Key {
	jobs := make([][]Key, 0, len(live))
	for i := 0; i < len(live); {
		n := 1
		for i+n < len(live) && live[i+n].cell() == live[i].cell() {
			n++
		}
		jobs = append(jobs, live[i:i+n:i+n])
		i += n
	}
	return jobs
}

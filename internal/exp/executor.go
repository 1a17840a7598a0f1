package exp

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// This file is the one campaign executor behind sweeps (Stream) and
// online grids (RunGrid). A campaign kind lists its instance keys in job
// order and says how to group and run them; the executor plans the
// work, replays what the journal already holds, runs the rest on the
// worker pool and journals every result before its consumer sees it.

// campaign is one campaign as the executor runs it. K, R and S are the
// journal's key, record and spec types; J is the pool's job type (a key,
// or a group of keys that run together).
type campaign[K comparable, R, S, J any] struct {
	// journal, when set, records every result; its keys are replayed
	// instead of re-run.
	journal *journal[K, R, S]
	// keys lists every instance of the campaign in job order. unit keys
	// in a row form one shard unit (a sweep coordinate fans out over its
	// heuristics); shard keeps the units it covers.
	keys  []K
	unit  int
	shard Shard
	// workers bounds the pool (GOMAXPROCS when <= 0); newRun builds one
	// pool worker's run function.
	workers int
	newRun  func() poolRun[J, R]
}

// run executes the campaign. Before anything runs, jobs sees the
// planned keys (those the shard covers) and groups the live ones
// (planned, not yet journaled) into pool jobs. record receives
// every result — journal replays first, in canonical order, then live
// results in completion order, each already journaled — with the
// completed and total counts; progress follows the replay (when
// anything replayed) and each live result. Either returning false stops
// the campaign. The three hooks are parameters rather than fields: they
// never escape run, so the closures a kind passes, and the state they
// capture, stay off the heap (the campaign's fields leak to the pool's
// goroutines).
//
// run returns errStopped when record or progress asked to stop, the
// first worker or journal error, or — when fewer results than planned
// were delivered — the context's error, so a cancelled campaign never
// masquerades as a completed one, even when everything was already
// journaled.
func (c *campaign[K, R, S, J]) run(ctx context.Context, jobs func(planned, live []K) []J,
	record func(r R, replayed bool, done, total int) bool, progress func(done, total int) bool) error {
	planned := c.keys
	if c.shard.Count > 1 {
		planned = make([]K, 0, len(c.keys)/c.shard.Count+c.unit)
		for i, k := range c.keys {
			if c.shard.Covers(i / c.unit) {
				planned = append(planned, k)
			}
		}
	}
	live := planned
	var prior []R
	if c.journal != nil {
		live = make([]K, 0, len(planned))
		for _, k := range planned {
			if r, ok := c.journal.Done(k); ok {
				prior = append(prior, r)
			} else {
				live = append(live, k)
			}
		}
		c.journal.kind.sort(prior)
	}
	work := jobs(planned, live)

	total, done := len(planned), 0
	// Replay honors cancellation per record, like the live pool does at
	// instance boundaries, and ends with one summary progress event, so
	// resuming consumers see recorded work exactly once without a
	// per-instance progress storm.
	for _, r := range prior {
		if err := ctx.Err(); err != nil {
			return err
		}
		done++
		if !record(r, true, done, total) {
			return errStopped
		}
	}
	if len(prior) > 0 && !progress(done, total) {
		return errStopped
	}
	err := runPool(ctx, c.workers, work, c.newRun, func(r R) error {
		if c.journal != nil {
			if err := c.journal.Append(r); err != nil {
				return err
			}
		}
		done++
		if !record(r, false, done, total) || !progress(done, total) {
			return errStopped
		}
		return nil
	})
	if err == nil && done < total {
		err = ctx.Err()
	}
	return err
}

// resume opens the journal at path for appending and hands it to run,
// which rebuilds the campaign from the header and runs it; the journal
// is closed — flushed and resumable — when resume returns, whether the
// campaign completed or was cancelled.
func resume[K comparable, R, S, T any](kind *journalKind[K, R, S], path string, run func(*journal[K, R, S]) (T, error)) (T, error) {
	j, err := openJournal(kind, path, nil)
	if err != nil {
		var zero T
		return zero, err
	}
	defer j.Close()
	return run(j)
}

// poolRun runs one job on a pool worker, handing each of its results to
// emit. An error that is not a cancellation fails the whole pool.
type poolRun[J, R any] func(ctx context.Context, job J, emit func(R)) error

// errStopped is what a collector returns to stop the pool when nothing
// went wrong (a Stream consumer broke out of its loop).
var errStopped = errors.New("exp: campaign stopped by its consumer")

// runPool is the campaign worker pool behind the executor. It runs jobs
// on up to workers goroutines (GOMAXPROCS when workers <= 0); each
// goroutine gets its own run from newRun, so per-worker state such as an
// analytic cache stays goroutine-confined. collect receives every result
// on the calling goroutine, in completion order; an error from it stops
// the pool and is returned.
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

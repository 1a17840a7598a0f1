package serve

import (
	"context"
	"io"
	"sync"
	"time"

	"tightsched"
	"tightsched/internal/cluster"
)

// State is a campaign's lifecycle position. Transitions are one-way:
// pending → running → one of the three terminal states.
type State string

const (
	// StatePending: accepted and queued for a runner slot.
	StatePending State = "pending"
	// StateRunning: executing on the runner pool.
	StateRunning State = "running"
	// StateSucceeded: every instance completed; tables are servable.
	StateSucceeded State = "succeeded"
	// StateFailed: a worker reported an error.
	StateFailed State = "failed"
	// StateCancelled: stopped by DELETE or daemon shutdown. The journal
	// (when attached) holds every completed instance and resumes
	// bit-identically.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCancelled
}

// Campaign is one submitted campaign: its spec, lifecycle state, progress
// counters, event broadcaster and (on success) result. All mutable state
// is guarded by mu; the runner goroutine writes, handlers read.
type Campaign struct {
	ID        string
	Name      string
	Spec      *Spec
	Submitted time.Time

	// cancel stops the campaign's context: DELETE, and daemon shutdown.
	cancel context.CancelFunc
	// events fans the campaign's stream out to SSE subscribers. Closed
	// when the campaign reaches a terminal state.
	events *tightsched.SweepBroadcaster
	// done is closed when the campaign reaches a terminal state — the
	// wake-up for SSE handlers waiting to emit the final state event.
	done chan struct{}

	mu       sync.Mutex
	state    State
	started  time.Time
	finished time.Time
	// progress counters, updated by the run observer.
	completed, total             int
	completedPoints, totalPoints int
	// cache accumulates the batched cells' cross-instance cache counters
	// (nil until a PointDone carries some).
	cache *tightsched.SweepCacheStats
	// cancelRequested marks a DELETE (or shutdown), so the runner can
	// distinguish "cancelled" from a spontaneous context error.
	cancelRequested bool
	errMsg          string
	journalPath     string
	result          *tightsched.SweepResult
	// coord is the live cluster coordinator of a run.cluster campaign
	// (nil for in-process campaigns, and again once terminal);
	// clusterStats freezes its final snapshot for status and metrics.
	coord        *cluster.Coordinator
	clusterStats *cluster.Stats
}

// observer is the campaign's Observer: it keeps the status counters
// current and forwards every event to the SSE broadcaster. Stream calls
// it from a single goroutine; the lock only orders it against handlers.
type observer struct{ c *Campaign }

func (o observer) OnInstanceDone(ev tightsched.InstanceDone) {
	o.c.mu.Lock()
	o.c.completed, o.c.total = ev.Completed, ev.Total
	o.c.mu.Unlock()
	o.c.events.OnInstanceDone(ev)
}

func (o observer) OnPointDone(ev tightsched.PointDone) {
	o.c.mu.Lock()
	o.c.completedPoints, o.c.totalPoints = ev.CompletedPoints, ev.TotalPoints
	if ev.Cache != nil {
		if o.c.cache == nil {
			o.c.cache = &tightsched.SweepCacheStats{}
		}
		o.c.cache.Add(*ev.Cache)
	}
	o.c.mu.Unlock()
	o.c.events.OnPointDone(ev)
}

func (o observer) OnProgress(ev tightsched.Progress) {
	o.c.mu.Lock()
	o.c.completed, o.c.total = ev.Completed, ev.Total
	o.c.mu.Unlock()
	o.c.events.OnProgress(ev)
}

// Status is the wire shape of GET /v1/campaigns/{id} (and of SSE "state"
// events): everything a client needs to follow a campaign without
// scraping logs.
type Status struct {
	ID        string     `json:"id"`
	Name      string     `json:"name,omitempty"`
	State     State      `json:"state"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// WallSeconds is the campaign's execution wall-clock so far (final
	// once terminal).
	WallSeconds float64  `json:"wallSeconds,omitempty"`
	Progress    Counters `json:"progress"`
	Points      Counters `json:"points"`
	// Spec is the campaign's resolved identity — the same document
	// stamped into its journal header (zero for online grid campaigns,
	// whose identity is Grid).
	Spec tightsched.SweepSpec `json:"spec"`
	// Grid is an online grid campaign's resolved identity — the grid
	// journal header's spec (absent for offline sweeps).
	Grid    *tightsched.OnlineSpec      `json:"grid,omitempty"`
	Shard   string                      `json:"shard,omitempty"`
	Journal string                      `json:"journal,omitempty"`
	Cache   *tightsched.SweepCacheStats `json:"cache,omitempty"`
	// Cluster carries the lease-lifecycle stats of a run.cluster
	// campaign (absent for in-process campaigns).
	Cluster *cluster.Stats `json:"cluster,omitempty"`
	Error   string         `json:"error,omitempty"`
}

// Counters is a completed/total pair.
type Counters struct {
	Completed int `json:"completed"`
	Total     int `json:"total"`
}

// Status snapshots the campaign for reporting.
func (c *Campaign) Status(now time.Time) Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		ID:        c.ID,
		Name:      c.Name,
		State:     c.state,
		Submitted: c.Submitted,
		Progress:  Counters{c.completed, c.total},
		Points:    Counters{c.completedPoints, c.totalPoints},
		Spec:      c.Spec.Stamped,
		Grid:      c.Spec.GridStamped,
		Journal:   c.journalPath,
		Error:     c.errMsg,
	}
	if c.Spec.Shard.Count > 1 {
		st.Shard = c.Spec.Shard.String()
	}
	if c.cache != nil {
		cache := *c.cache
		st.Cache = &cache
	}
	if stats := c.clusterStatsLocked(); stats != nil {
		st.Cluster = stats
	}
	if !c.started.IsZero() {
		t := c.started
		st.Started = &t
		end := now
		if !c.finished.IsZero() {
			end = c.finished
			t2 := c.finished
			st.Finished = &t2
		}
		st.WallSeconds = end.Sub(c.started).Seconds()
	}
	return st
}

// State returns the current lifecycle state.
func (c *Campaign) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Result returns the campaign's result, present only once succeeded.
func (c *Campaign) Result() *tightsched.SweepResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.result
}

// JournalPath returns the campaign's journal file ("" when journaling is
// off).
func (c *Campaign) JournalPath() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.journalPath
}

// Cancel requests cancellation. The campaign reaches StateCancelled when
// its runner observes the cancelled context (immediately for a pending
// campaign); the journal keeps every instance completed so far.
func (c *Campaign) Cancel() {
	c.mu.Lock()
	c.cancelRequested = true
	c.mu.Unlock()
	c.cancel()
}

// CancelRequested reports whether Cancel was called explicitly (DELETE),
// as opposed to the campaign's context dying with the daemon. Cluster
// campaigns use the distinction to decide whether their lease log ends
// for good or stays live for a restart to resume.
func (c *Campaign) CancelRequested() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cancelRequested
}

// Done returns the channel closed when the campaign reaches a terminal
// state.
func (c *Campaign) Done() <-chan struct{} { return c.done }

// Coordinator returns the campaign's live cluster coordinator (nil for
// in-process campaigns, and for cluster campaigns once terminal).
func (c *Campaign) Coordinator() *cluster.Coordinator {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coord
}

// setCoordinator publishes the live coordinator to the lease handlers.
func (c *Campaign) setCoordinator(coord *cluster.Coordinator) {
	c.mu.Lock()
	c.coord = coord
	c.mu.Unlock()
}

// finishCluster detaches the live coordinator (lease endpoints answer
// 410 from here on) and freezes its final stats snapshot.
func (c *Campaign) finishCluster(stats cluster.Stats) {
	c.mu.Lock()
	c.coord = nil
	c.clusterStats = &stats
	c.mu.Unlock()
}

// clusterStatsLocked snapshots the cluster stats with c.mu held: live
// coordinator gauges while running, the frozen final once terminal. The
// c.mu → coordinator-mutex lock order is safe — the coordinator never
// calls back into the campaign while holding its own lock (OnInstance
// fires after it unlocks).
func (c *Campaign) clusterStatsLocked() *cluster.Stats {
	if c.coord != nil {
		st := c.coord.Snapshot()
		return &st
	}
	return c.clusterStats
}

// ClusterStats snapshots the campaign's cluster stats (nil for
// in-process campaigns).
func (c *Campaign) ClusterStats() *cluster.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clusterStatsLocked()
}

// markRunning transitions pending → running.
func (c *Campaign) markRunning(now time.Time) {
	c.mu.Lock()
	c.state = StateRunning
	c.started = now
	c.mu.Unlock()
}

// createJournal creates the journal file of an in-process campaign and
// returns it with the option that attaches it to the session call.
func (c *Campaign) createJournal() (io.Closer, tightsched.Option, error) {
	if g := c.Spec.Grid; g != nil {
		j, err := tightsched.CreateOnlineJournalFormat(c.journalPath, *g, c.Spec.Format)
		return j, tightsched.WithOnlineJournal(j), err
	}
	j, err := tightsched.CreateSweepJournalFormat(c.journalPath, c.Spec.Sweep, c.Spec.Shard, c.Spec.Format)
	return j, tightsched.WithJournal(j), err
}

// finish records the terminal state and wakes every waiter. err is the
// run's error; ctx distinguishes cancellation from failure.
func (c *Campaign) finish(ctx context.Context, err error, res *tightsched.SweepResult, now time.Time) {
	c.mu.Lock()
	c.finished = now
	switch {
	case err == nil:
		c.state = StateSucceeded
		c.result = res
	case c.cancelRequested || ctx.Err() != nil:
		c.state = StateCancelled
		if c.journalPath != "" {
			c.errMsg = "cancelled; journal holds completed instances and is resumable"
		} else {
			c.errMsg = "cancelled"
		}
	default:
		c.state = StateFailed
		c.errMsg = err.Error()
	}
	c.mu.Unlock()
	c.events.Close()
	close(c.done)
}

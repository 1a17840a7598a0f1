package cluster

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"sync"
	"time"

	"tightsched/internal/exp"
)

// Config assembles a Coordinator.
type Config struct {
	// Campaign is the owning campaign's ID (stamped into the lease log
	// and every grant).
	Campaign string
	// Name is the submitter's campaign label (lease-log header only).
	Name string
	// Submitted is the campaign's submission time (lease-log header).
	Submitted time.Time
	// Sweep is the runnable campaign. Its grid defines the work units.
	Sweep exp.Sweep
	// Units is the initial decomposition width (default 8, clamped to
	// the grid's coordinate count).
	Units int
	// LeaseTTL is how long a lease lives without a heartbeat (default
	// 15s).
	LeaseTTL time.Duration
	// GCInterval is the cadence the owner should call GC at (recorded
	// in the header for restart; default LeaseTTL/3).
	GCInterval time.Duration
	// Reshard splits a requeued unit into its two half-width children,
	// spreading a straggler's remainder across the fleet.
	Reshard bool
	// Journal is the campaign's result journal: the dedup authority and
	// the completion authority. The coordinator appends to it; the
	// caller owns opening and closing it.
	Journal *exp.Journal
	// StatePath is the lease log file. If it exists the coordinator
	// resumes from it; otherwise a fresh log is created.
	StatePath string
	// OnInstance, when set, observes each newly journaled instance
	// (never duplicates), outside the coordinator lock.
	OnInstance func(exp.InstanceDone)
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
	// Now is the clock (time.Now when nil) — the test seam for expiry.
	Now func() time.Time
}

// lease is one live grant.
type lease struct {
	id       string
	unit     exp.Shard
	worker   string
	deadline time.Time
	offset   int
	// order numbers the lease among the grants applied, so GC expires
	// leases in grant order.
	order int
}

// unitState is a work unit's position in the lease lifecycle.
type unitState int

const (
	unitAvailable unitState = iota
	unitLeased
	unitDone
)

// unit is one grid slice of the campaign.
type unit struct {
	shard    exp.Shard
	state    unitState
	leaseID  string
	requeues int
}

// Stats is a point-in-time snapshot of the coordinator, for status
// reports and the /metrics exposition.
type Stats struct {
	// Unit gauges.
	Units     int `json:"units"`
	UnitsDone int `json:"unitsDone"`
	Leased    int `json:"leased"`
	Available int `json:"available"`
	// Workers is the number of distinct workers holding live leases.
	Workers int `json:"workers"`
	// Lease lifecycle counters (coordinator lifetime).
	Granted   uint64 `json:"granted"`
	Expired   uint64 `json:"expired"`
	Requeued  uint64 `json:"requeued"`
	Resharded uint64 `json:"resharded"`
	// Ingest counters.
	Heartbeats uint64 `json:"heartbeats"`
	Accepted   uint64 `json:"accepted"`
	Duplicates uint64 `json:"duplicates"`
	Conflicts  uint64 `json:"conflicts"`
	// Instance progress.
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Coordinator owns one campaign's lease table: the units, the leases,
// the claim queue, the lease sequence and the terminal state. All
// transitions are serialized under mu, persisted to the lease log before
// they are acknowledged, and applied by apply, the one function that
// changes the table — live and on lease-log replay alike. A kill -9 at
// any point loses at most an unacknowledged transition, which the
// affected worker re-drives.
type Coordinator struct {
	cfg        Config
	spec       exp.SweepSpec
	coords     []exp.Coord
	heuristics []string
	total      int

	mu     sync.Mutex
	log    *exp.RecordLog
	units  map[exp.Shard]*unit
	avail  []exp.Shard // claim queue, FIFO; every entry an available unit
	leases map[string]*lease
	seq    int
	grants int    // grants applied: the last lease's order
	ended  string // terminal state once written ("" while live)
	doneCh chan struct{}

	granted, expired, requeued, resharded uint64
	heartbeats, accepted, dups, conflicts uint64
}

// Start creates a coordinator for the campaign, resuming from an
// existing lease log at StatePath or creating a fresh one. On resume,
// leases that were live when the previous coordinator died are re-armed
// with a fresh deadline: their workers get one TTL of grace to
// reconnect (they retry with backoff while the coordinator is away),
// after which the normal GC expiry requeues the unit.
func Start(cfg Config) (*Coordinator, error) {
	if cfg.Journal == nil {
		return nil, fmt.Errorf("cluster: coordinator needs a journal")
	}
	if cfg.StatePath == "" {
		return nil, fmt.Errorf("cluster: coordinator needs a state path")
	}
	if err := cfg.Sweep.Validate(); err != nil {
		return nil, err
	}
	if got, want := cfg.Journal.Spec(), cfg.Sweep.Spec(); !reflect.DeepEqual(got, want) {
		return nil, fmt.Errorf("cluster: journal %s records a different campaign (spec %+v, want %+v)",
			cfg.Journal.Path(), got, want)
	}
	if cfg.Units <= 0 {
		cfg.Units = 8
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.GCInterval <= 0 {
		cfg.GCInterval = cfg.LeaseTTL / 3
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	co := &Coordinator{
		cfg:    cfg,
		spec:   cfg.Sweep.Spec(),
		coords: cfg.Sweep.Coords(),
		doneCh: make(chan struct{}),
	}
	co.heuristics = co.spec.Heuristics
	co.total = len(co.coords) * len(co.heuristics)
	if cfg.Units > len(co.coords) {
		cfg.Units = len(co.coords)
		co.cfg.Units = cfg.Units
	}

	if _, err := os.Stat(cfg.StatePath); err == nil {
		if err := co.resume(); err != nil {
			return nil, err
		}
	} else {
		header := StateHeader{
			V: 1, Campaign: cfg.Campaign, Name: cfg.Name, Submitted: cfg.Submitted,
			Spec: co.spec, Units: cfg.Units,
			LeaseTTLMillis:   cfg.LeaseTTL.Milliseconds(),
			GCIntervalMillis: cfg.GCInterval.Milliseconds(),
			Reshard:          cfg.Reshard,
		}
		raw, err := json.Marshal(header)
		if err != nil {
			return nil, fmt.Errorf("cluster: create lease log: %w", err)
		}
		w, err := exp.CreateRecordLog(cfg.StatePath, exp.FormatJSONL, raw)
		if err != nil {
			return nil, fmt.Errorf("cluster: create lease log: %w", err)
		}
		co.log = w
		co.initUnits(cfg.Units)
	}

	// Units whose instances are already fully journaled (a restart
	// after the journal outran the lease log, or a resubmitted spec
	// over a finished journal) complete without ever being leased.
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, sh := range slices.Clone(co.avail) {
		if co.unitCovered(sh) {
			if err := co.transition(stateEvent{Ev: "done", Unit: sh.String()}); err != nil {
				return nil, err
			}
		}
	}
	if err := co.checkCampaignDone(); err != nil {
		return nil, err
	}
	return co, nil
}

// resume rebuilds the lease table by replaying the lease log through
// apply: the same transitions, in the same order, as the coordinator
// that wrote it, so the units, leases, claim queue and lease sequence
// come back exactly. Deadlines are volatile: every live lease is
// re-armed with one fresh TTL, so a surviving worker reconnects before
// GC claims expiry.
func (co *Coordinator) resume() error {
	st, err := ReadState(co.cfg.StatePath)
	if err != nil {
		return err
	}
	header := st.Header
	if st.Terminal != "" {
		return fmt.Errorf("cluster: campaign %s already ended %q", header.Campaign, st.Terminal)
	}
	if !reflect.DeepEqual(header.Spec, co.spec) {
		return fmt.Errorf("cluster: lease log %s records a different campaign (spec %+v, want %+v)",
			co.cfg.StatePath, header.Spec, co.spec)
	}
	co.initUnits(header.Units)
	now := co.cfg.Now()
	for _, ev := range st.Events {
		if err := co.apply(ev, now); err != nil {
			return fmt.Errorf("cluster: lease log %s: %w", co.cfg.StatePath, err)
		}
	}
	w, err := exp.OpenRecordLog(co.cfg.StatePath, st.Format, st.ValidLen)
	if err != nil {
		return fmt.Errorf("cluster: reopen lease log: %w", err)
	}
	co.log = w
	co.cfg.Logf("cluster: resumed campaign %s: %d units (%d leased, %d available), %d/%d instances journaled",
		co.cfg.Campaign, len(co.units), len(co.leases), len(co.avail), co.cfg.Journal.DoneCount(), co.total)
	return nil
}

// initUnits sets up the campaign's initial decomposition: n available
// units, queued in index order, and no leases.
func (co *Coordinator) initUnits(n int) {
	co.units, co.leases = map[exp.Shard]*unit{}, map[string]*lease{}
	for i := range n {
		sh := exp.Shard{Index: i, Count: n}
		co.units[sh] = &unit{shard: sh}
		co.avail = append(co.avail, sh)
	}
}

// transition persists one lease-table transition, then applies it.
// Caller holds mu.
func (co *Coordinator) transition(ev stateEvent) error {
	b, err := json.Marshal(ev)
	if err == nil {
		err = co.log.Append(b)
	}
	if err != nil {
		return fmt.Errorf("cluster: persist %s: %w", ev.Ev, err)
	}
	if err := co.apply(ev, co.cfg.Now()); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

// apply is the lease table's transition function, the only code that
// changes the units, the leases, the claim queue, seq and ended. A grant
// arms its lease's deadline at now plus the lease TTL. It refuses an
// event the table cannot take (a grant of a unit that is not available
// or under a lease id that is live, a requeue of a unit that is not
// leased), leaving the table as it was.
func (co *Coordinator) apply(ev stateEvent, now time.Time) error {
	if ev.Ev == "end" {
		co.ended = ev.State
		return nil
	}
	sh, err := exp.ParseShard(ev.Unit)
	u := co.units[sh]
	if err != nil || u == nil {
		return fmt.Errorf("%s of unknown unit %q", ev.Ev, ev.Unit)
	}
	switch ev.Ev {
	case "grant":
		if u.state != unitAvailable || ev.Lease == "" || co.leases[ev.Lease] != nil {
			return fmt.Errorf("grant of %s under lease %q: unit not available, or lease id empty or live", sh, ev.Lease)
		}
		u.state, u.leaseID = unitLeased, ev.Lease
		co.grants++
		co.leases[ev.Lease] = &lease{id: ev.Lease, unit: sh, worker: ev.Worker,
			deadline: now.Add(co.cfg.LeaseTTL), offset: ev.Offset, order: co.grants}
		co.avail = slices.DeleteFunc(co.avail, func(q exp.Shard) bool { return q == sh })
		var n int
		if _, err := fmt.Sscanf(ev.Lease, "l%d", &n); err == nil {
			co.seq = max(co.seq, n)
		}
	case "requeue":
		if u.state != unitLeased || (ev.Split && !splittable(sh, len(co.coords))) {
			return fmt.Errorf("requeue of %s (split %v): unit not leased, or too narrow to split", sh, ev.Split)
		}
		delete(co.leases, u.leaseID)
		if ev.Split {
			delete(co.units, sh)
			for _, child := range splitShard(sh) {
				co.units[child] = &unit{shard: child, requeues: u.requeues + 1}
				co.avail = append(co.avail, child)
			}
		} else {
			u.state, u.leaseID = unitAvailable, ""
			u.requeues++
			co.avail = append(co.avail, sh)
		}
	case "done":
		delete(co.leases, u.leaseID)
		u.state, u.leaseID = unitDone, ""
		co.avail = slices.DeleteFunc(co.avail, func(q exp.Shard) bool { return q == sh })
	default:
		return fmt.Errorf("unknown event %q", ev.Ev)
	}
	return nil
}

// splitShard partitions shard (i, n) into its two exact half-width
// children (i, 2n) and (i+n, 2n): every coordinate index idx with
// idx ≡ i (mod n) satisfies exactly one of idx ≡ i, idx ≡ i+n (mod 2n).
func splitShard(sh exp.Shard) [2]exp.Shard {
	return [2]exp.Shard{
		{Index: sh.Index, Count: sh.Count * 2},
		{Index: sh.Index + sh.Count, Count: sh.Count * 2},
	}
}

// splittable reports whether both children would own at least one
// coordinate of a grid with c coordinates.
func splittable(sh exp.Shard, c int) bool {
	return sh.Index+sh.Count < c
}

// Total returns the campaign's instance count.
func (co *Coordinator) Total() int { return co.total }

// LeaseTTL returns the effective lease TTL (after defaulting).
func (co *Coordinator) LeaseTTL() time.Duration { return co.cfg.LeaseTTL }

// GCInterval returns the effective GC cadence (after defaulting).
func (co *Coordinator) GCInterval() time.Duration { return co.cfg.GCInterval }

// Progress returns (journaled, total) instance counts.
func (co *Coordinator) Progress() (int, int) {
	return co.cfg.Journal.DoneCount(), co.total
}

// Done returns the channel closed when every instance is journaled.
func (co *Coordinator) Done() <-chan struct{} { return co.doneCh }

// Spec returns the campaign's serialized identity.
func (co *Coordinator) Spec() exp.SweepSpec { return co.spec }

// Claim leases the next available work unit to the worker. It returns
// (nil, nil) when no unit is currently available (all leased or done —
// the worker should poll again) and ErrCampaignDone once the campaign
// has completed.
func (co *Coordinator) Claim(worker string) (*LeaseGrant, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.ended != "" {
		return nil, ErrCampaignDone
	}
	for len(co.avail) > 0 {
		sh := co.avail[0]
		// A unit already fully covered by the journal (duplicates from
		// an earlier incarnation of this unit's lease) completes
		// without a new lease.
		if co.unitCovered(sh) {
			if err := co.transition(stateEvent{Ev: "done", Unit: sh.String()}); err != nil {
				return nil, err
			}
			if err := co.checkCampaignDone(); err != nil {
				return nil, err
			}
			if co.ended != "" {
				return nil, ErrCampaignDone
			}
			continue
		}
		id := fmt.Sprintf("l%d", co.seq+1)
		if err := co.transition(stateEvent{Ev: "grant", Unit: sh.String(), Lease: id,
			Worker: worker, Offset: co.cfg.Journal.DoneCount()}); err != nil {
			return nil, err
		}
		l := co.leases[id]
		co.granted++
		co.cfg.Logf("cluster: %s leased unit %s to %s (deadline %s)",
			co.cfg.Campaign, sh, worker, l.deadline.Format(time.RFC3339))
		return &LeaseGrant{
			Campaign:  co.cfg.Campaign,
			Lease:     l.id,
			Unit:      sh.String(),
			Spec:      co.spec,
			Deadline:  l.deadline,
			TTLMillis: co.cfg.LeaseTTL.Milliseconds(),
			Done:      l.offset,
			Total:     co.total,
		}, nil
	}
	return nil, nil
}

// Heartbeat renews the lease's deadline. ErrLeaseGone means the lease
// expired, was requeued, or its unit completed: the worker should stop
// working on it and claim fresh work.
func (co *Coordinator) Heartbeat(leaseID string) (time.Time, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.heartbeats++
	l, ok := co.leases[leaseID]
	if !ok || co.ended != "" {
		return time.Time{}, ErrLeaseGone
	}
	l.deadline = co.cfg.Now().Add(co.cfg.LeaseTTL)
	return l.deadline, nil
}

// Ingest records a batch of completed instances idempotently: new
// coordinates are journaled (and observed), coordinates already
// journaled with the same outcome count as duplicates, and mismatched
// outcomes are refused and counted as conflicts (an honest worker can
// never produce one — every instance is a deterministic function of its
// coordinate). A batch holding a record that is not a coordinate of the
// campaign is an error, and nothing of it is journaled. Ingest accepts
// batches for dead leases too — the work is valid regardless — and
// reports whether the lease still stands so the worker can stop wasting
// effort when it does not.
func (co *Coordinator) Ingest(leaseID string, recs []exp.SweepRecord) (UploadResponse, error) {
	co.mu.Lock()
	var resp UploadResponse
	if co.ended != "" {
		// The campaign is over (and its journal may be closing): nothing
		// to record, and telling the worker its lease is dead stops it.
		co.mu.Unlock()
		return resp, nil
	}
	for _, rec := range recs {
		if !co.validCoordinate(rec.Instance()) {
			co.mu.Unlock()
			return UploadResponse{}, fmt.Errorf("cluster: instance %+v is not a coordinate of campaign %s", rec, co.cfg.Campaign)
		}
	}
	var observed []exp.InstanceDone
	for _, rec := range recs {
		inst := rec.Instance()
		k := inst.Key()
		if prev, ok := co.cfg.Journal.Done(k); ok {
			if prev != inst {
				resp.Conflicts++
				co.conflicts++
				co.cfg.Logf("cluster: %s: conflicting result for %+v: recorded %+v, upload %+v (keeping recorded)",
					co.cfg.Campaign, k, prev, inst)
				continue
			}
			resp.Duplicates++
			co.dups++
			continue
		}
		if err := co.cfg.Journal.Append(inst); err != nil {
			co.mu.Unlock()
			return UploadResponse{}, err
		}
		resp.Accepted++
		co.accepted++
		if co.cfg.OnInstance != nil {
			observed = append(observed, exp.InstanceDone{
				Instance:  inst,
				Completed: co.cfg.Journal.DoneCount(),
				Total:     co.total,
			})
		}
	}
	_, resp.LeaseLive = co.leases[leaseID]
	err := co.checkCampaignDone()
	co.mu.Unlock()
	if err != nil {
		return UploadResponse{}, err
	}
	for _, ev := range observed {
		co.cfg.OnInstance(ev)
	}
	return resp, nil
}

// validCoordinate checks that the instance is a point of this
// campaign's grid (a malformed upload must not poison the journal).
func (co *Coordinator) validCoordinate(inst exp.InstanceResult) bool {
	return slices.Contains(co.spec.Models, inst.Model) && slices.Contains(co.heuristics, inst.Heuristic) &&
		slices.Contains(co.spec.Ncoms, inst.Point.Ncom) && slices.Contains(co.spec.Wmins, inst.Point.Wmin) &&
		inst.Point.Scenario >= 0 && inst.Point.Scenario < co.spec.Scenarios &&
		inst.Trial >= 0 && inst.Trial < co.spec.Trials
}

// Complete finishes a lease: if the journal covers the unit, the unit
// is done; if not (results lost in flight, an upload that never
// arrived), the unit is requeued and ErrUnitIncomplete returned.
func (co *Coordinator) Complete(leaseID string) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.ended != "" {
		// The campaign ended while this completion was in flight —
		// typically because this lease's own final upload crossed the
		// finish line inside Ingest, which settles every unit. On
		// success the completion is an acknowledged no-op; on any
		// other end the lease is simply dead.
		if co.ended == "succeeded" {
			return nil
		}
		return ErrLeaseGone
	}
	l, ok := co.leases[leaseID]
	if !ok {
		return ErrLeaseGone
	}
	if !co.unitCovered(l.unit) {
		co.cfg.Logf("cluster: %s: lease %s completed unit %s without full coverage; requeueing",
			co.cfg.Campaign, leaseID, l.unit)
		if err := co.requeueLocked(l); err != nil {
			return err
		}
		return ErrUnitIncomplete
	}
	if err := co.transition(stateEvent{Ev: "done", Unit: l.unit.String(), Lease: leaseID}); err != nil {
		return err
	}
	return co.checkCampaignDone()
}

// GC expires leases whose deadline has passed: a unit whose coverage
// completed anyway (the worker uploaded everything, then died before
// Complete) is marked done; the rest are requeued — split into their
// two half-width children when resharding is on and the unit is wide
// enough. Leases expire in grant order, so the claim queue and the lease
// log do not depend on map iteration order. Returns the number of
// leases expired.
func (co *Coordinator) GC() (int, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.ended != "" {
		return 0, nil
	}
	now := co.cfg.Now()
	var due []*lease
	for _, l := range co.leases {
		if l.deadline.Before(now) {
			due = append(due, l)
		}
	}
	slices.SortFunc(due, func(a, b *lease) int { return cmp.Compare(a.order, b.order) })
	expired := 0
	for _, l := range due {
		expired++
		co.expired++
		co.cfg.Logf("cluster: %s: lease %s (unit %s, worker %s) expired", co.cfg.Campaign, l.id, l.unit, l.worker)
		if co.unitCovered(l.unit) {
			if err := co.transition(stateEvent{Ev: "done", Unit: l.unit.String(), Lease: l.id}); err != nil {
				return expired, err
			}
			continue
		}
		if err := co.requeueLocked(l); err != nil {
			return expired, err
		}
	}
	if expired > 0 {
		if err := co.checkCampaignDone(); err != nil {
			return expired, err
		}
	}
	return expired, nil
}

// requeueLocked returns a leased unit to the claim queue (or replaces
// it with its split children). Caller holds mu.
func (co *Coordinator) requeueLocked(l *lease) error {
	split := co.cfg.Reshard && splittable(l.unit, len(co.coords))
	if err := co.transition(stateEvent{Ev: "requeue", Unit: l.unit.String(), Lease: l.id, Split: split}); err != nil {
		return err
	}
	co.requeued++
	if split {
		co.resharded++
		co.cfg.Logf("cluster: %s: unit %s requeued as %s + %s", co.cfg.Campaign, l.unit,
			splitShard(l.unit)[0], splitShard(l.unit)[1])
	}
	return nil
}

// unitCovered reports whether every instance of the unit is journaled.
// Caller holds mu.
func (co *Coordinator) unitCovered(sh exp.Shard) bool {
	for idx, c := range co.coords {
		if !sh.Covers(idx) {
			continue
		}
		for _, h := range co.heuristics {
			if _, ok := co.cfg.Journal.Done(exp.Key{Model: c.Model, Ncom: c.Point.Ncom,
				Wmin: c.Point.Wmin, Scenario: c.Point.Scenario, Trial: c.Trial, Heuristic: h}); !ok {
				return false
			}
		}
	}
	return true
}

// checkCampaignDone ends the campaign once every instance is journaled.
// Caller holds mu.
func (co *Coordinator) checkCampaignDone() error {
	if co.ended != "" || co.cfg.Journal.DoneCount() < co.total {
		return nil
	}
	// Full coverage means every unit is done, including units whose
	// Complete is still in flight (the end usually lands inside the
	// final Ingest, ahead of the worker's completion call). Settle them
	// so the terminal stats and /metrics read done, not leased.
	for sh, u := range co.units {
		if u.state != unitDone {
			if err := co.transition(stateEvent{Ev: "done", Unit: sh.String(), Lease: u.leaseID}); err != nil {
				return err
			}
		}
	}
	if err := co.endLocked("succeeded"); err != nil {
		return err
	}
	close(co.doneCh)
	return nil
}

// End records the campaign's terminal state in the lease log (so a
// daemon restart does not resurrect a cancelled or failed campaign).
// The "succeeded" end is written by the coordinator itself when the
// last instance lands.
func (co *Coordinator) End(state string) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.endLocked(state)
}

func (co *Coordinator) endLocked(state string) error {
	if co.ended != "" {
		return nil
	}
	if err := co.transition(stateEvent{Ev: "end", State: state}); err != nil {
		return err
	}
	co.cfg.Logf("cluster: campaign %s ended %s (%d/%d instances)", co.cfg.Campaign, state,
		co.cfg.Journal.DoneCount(), co.total)
	return nil
}

// Close closes the lease log. The campaign journal belongs to the
// caller.
func (co *Coordinator) Close() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.log.Close()
}

// Snapshot returns current gauges and lifetime counters.
func (co *Coordinator) Snapshot() Stats {
	co.mu.Lock()
	defer co.mu.Unlock()
	st := Stats{
		Units:      len(co.units),
		Granted:    co.granted,
		Expired:    co.expired,
		Requeued:   co.requeued,
		Resharded:  co.resharded,
		Heartbeats: co.heartbeats,
		Accepted:   co.accepted,
		Duplicates: co.dups,
		Conflicts:  co.conflicts,
		Done:       co.cfg.Journal.DoneCount(),
		Total:      co.total,
	}
	workers := map[string]bool{}
	for _, u := range co.units {
		switch u.state {
		case unitDone:
			st.UnitsDone++
		case unitLeased:
			st.Leased++
		case unitAvailable:
			st.Available++
		}
	}
	for _, l := range co.leases {
		workers[l.worker] = true
	}
	st.Workers = len(workers)
	return st
}

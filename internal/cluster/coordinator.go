package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
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

// Coordinator owns one campaign's lease table. All state transitions
// are serialized under mu and persisted to the lease log before they
// are acknowledged, so a kill -9 at any point loses at most an
// unacknowledged transition — which the affected worker re-drives.
type Coordinator struct {
	cfg        Config
	spec       exp.SweepSpec
	coords     []exp.Coord
	heuristics []string
	total      int
	// validators for ingested coordinates
	validModel, validHeuristic map[string]bool
	validNcom, validWmin       map[int]bool

	mu     sync.Mutex
	log    *exp.RecordLog
	units  map[exp.Shard]*unit
	avail  []exp.Shard // claim queue, FIFO
	leases map[string]*lease
	seq    int
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
		cfg:        cfg,
		spec:       cfg.Sweep.Spec(),
		coords:     cfg.Sweep.Coords(),
		units:      map[exp.Shard]*unit{},
		leases:     map[string]*lease{},
		doneCh:     make(chan struct{}),
		validModel: map[string]bool{}, validHeuristic: map[string]bool{},
		validNcom: map[int]bool{}, validWmin: map[int]bool{},
	}
	co.heuristics = co.spec.Heuristics
	co.total = len(co.coords) * len(co.heuristics)
	if cfg.Units > len(co.coords) {
		cfg.Units = len(co.coords)
		co.cfg.Units = cfg.Units
	}
	for _, m := range co.spec.Models {
		co.validModel[m] = true
	}
	for _, h := range co.heuristics {
		co.validHeuristic[h] = true
	}
	for _, n := range co.spec.Ncoms {
		co.validNcom[n] = true
	}
	for _, w := range co.spec.Wmins {
		co.validWmin[w] = true
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
		for i := 0; i < cfg.Units; i++ {
			sh := exp.Shard{Index: i, Count: cfg.Units}
			co.units[sh] = &unit{shard: sh}
			co.avail = append(co.avail, sh)
		}
	}

	// Units whose instances are already fully journaled (a restart
	// after the journal outran the lease log, or a resubmitted spec
	// over a finished journal) complete without ever being leased.
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, sh := range append([]exp.Shard(nil), co.avail...) {
		if co.unitCovered(sh) {
			if err := co.markUnitDone(sh, ""); err != nil {
				return nil, err
			}
		}
	}
	if err := co.checkCampaignDone(); err != nil {
		return nil, err
	}
	return co, nil
}

// resume rebuilds the unit and lease tables by replaying the lease log.
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
	for i := 0; i < header.Units; i++ {
		sh := exp.Shard{Index: i, Count: header.Units}
		co.units[sh] = &unit{shard: sh}
	}
	now := co.cfg.Now()
	for _, ev := range st.Events {
		sh, perr := exp.ParseShard(ev.Unit)
		if ev.Ev != "end" && perr != nil {
			return fmt.Errorf("cluster: lease log %s: bad unit %q in %q event", co.cfg.StatePath, ev.Unit, ev.Ev)
		}
		u := co.units[sh]
		switch ev.Ev {
		case "grant":
			if u == nil || u.state != unitAvailable {
				return fmt.Errorf("cluster: lease log %s: grant of %s in state %v", co.cfg.StatePath, ev.Unit, u)
			}
			u.state = unitLeased
			u.leaseID = ev.Lease
			// Deadlines are volatile: re-arm with one fresh TTL so a
			// surviving worker reconnects before GC claims expiry.
			co.leases[ev.Lease] = &lease{id: ev.Lease, unit: sh, worker: ev.Worker,
				deadline: now.Add(co.cfg.LeaseTTL), offset: ev.Offset}
			var n int
			if _, err := fmt.Sscanf(ev.Lease, "l%d", &n); err == nil && n > co.seq {
				co.seq = n
			}
		case "requeue":
			if u == nil || u.state != unitLeased {
				return fmt.Errorf("cluster: lease log %s: requeue of %s not leased", co.cfg.StatePath, ev.Unit)
			}
			delete(co.leases, u.leaseID)
			if ev.Split {
				delete(co.units, sh)
				for _, child := range splitShard(sh) {
					co.units[child] = &unit{shard: child, requeues: u.requeues + 1}
				}
			} else {
				u.state = unitAvailable
				u.leaseID = ""
				u.requeues++
			}
		case "done":
			if u == nil {
				return fmt.Errorf("cluster: lease log %s: done for unknown unit %s", co.cfg.StatePath, ev.Unit)
			}
			delete(co.leases, u.leaseID)
			u.state = unitDone
			u.leaseID = ""
		case "end":
			// handled by ReadState; unreachable while terminal == ""
		default:
			return fmt.Errorf("cluster: lease log %s: unknown event %q", co.cfg.StatePath, ev.Ev)
		}
	}
	// Rebuild the claim queue in deterministic (count, index) order.
	var avail []exp.Shard
	for sh, u := range co.units {
		if u.state == unitAvailable {
			avail = append(avail, sh)
		}
	}
	sort.Slice(avail, func(i, j int) bool {
		if avail[i].Count != avail[j].Count {
			return avail[i].Count < avail[j].Count
		}
		return avail[i].Index < avail[j].Index
	})
	co.avail = avail

	w, err := exp.OpenRecordLog(co.cfg.StatePath, st.Format, st.ValidLen)
	if err != nil {
		return fmt.Errorf("cluster: reopen lease log: %w", err)
	}
	co.log = w
	co.cfg.Logf("cluster: resumed campaign %s: %d units (%d leased, %d available), %d/%d instances journaled",
		co.cfg.Campaign, len(co.units), len(co.leases), len(co.avail), co.cfg.Journal.DoneCount(), co.total)
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
		co.avail = co.avail[1:]
		u := co.units[sh]
		if u == nil || u.state != unitAvailable {
			continue
		}
		// A unit already fully covered by the journal (duplicates from
		// an earlier incarnation of this unit's lease) completes
		// without a new lease.
		if co.unitCovered(sh) {
			if err := co.markUnitDone(sh, ""); err != nil {
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
		co.seq++
		l := &lease{
			id:       fmt.Sprintf("l%d", co.seq),
			unit:     sh,
			worker:   worker,
			deadline: co.cfg.Now().Add(co.cfg.LeaseTTL),
			offset:   co.cfg.Journal.DoneCount(),
		}
		if err := co.logEvent(stateEvent{Ev: "grant", Unit: sh.String(), Lease: l.id,
			Worker: worker, Offset: l.offset}); err != nil {
			return nil, fmt.Errorf("cluster: persist grant: %w", err)
		}
		u.state = unitLeased
		u.leaseID = l.id
		co.leases[l.id] = l
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
func (co *Coordinator) Ingest(leaseID string, recs []Record) (UploadResponse, error) {
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
	return co.validModel[inst.Model] && co.validHeuristic[inst.Heuristic] &&
		co.validNcom[inst.Point.Ncom] && co.validWmin[inst.Point.Wmin] &&
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
	if err := co.markUnitDone(l.unit, leaseID); err != nil {
		return err
	}
	return co.checkCampaignDone()
}

// GC expires leases whose deadline has passed: a unit whose coverage
// completed anyway (the worker uploaded everything, then died before
// Complete) is marked done; the rest are requeued — split into their
// two half-width children when resharding is on and the unit is wide
// enough. Returns the number of leases expired.
func (co *Coordinator) GC() (int, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.ended != "" {
		return 0, nil
	}
	now := co.cfg.Now()
	expired := 0
	for _, l := range co.leases {
		if !l.deadline.Before(now) {
			continue
		}
		expired++
		co.expired++
		co.cfg.Logf("cluster: %s: lease %s (unit %s, worker %s) expired", co.cfg.Campaign, l.id, l.unit, l.worker)
		if co.unitCovered(l.unit) {
			if err := co.markUnitDone(l.unit, l.id); err != nil {
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
// it with its split children), persisting the transition. Caller holds
// mu.
func (co *Coordinator) requeueLocked(l *lease) error {
	u := co.units[l.unit]
	split := co.cfg.Reshard && splittable(l.unit, len(co.coords))
	if err := co.logEvent(stateEvent{Ev: "requeue", Unit: l.unit.String(), Lease: l.id, Split: split}); err != nil {
		return fmt.Errorf("cluster: persist requeue: %w", err)
	}
	delete(co.leases, l.id)
	co.requeued++
	if split {
		co.resharded++
		delete(co.units, l.unit)
		for _, child := range splitShard(l.unit) {
			co.units[child] = &unit{shard: child, requeues: u.requeues + 1}
			co.avail = append(co.avail, child)
		}
		co.cfg.Logf("cluster: %s: unit %s requeued as %s + %s", co.cfg.Campaign, l.unit,
			splitShard(l.unit)[0], splitShard(l.unit)[1])
		return nil
	}
	u.state = unitAvailable
	u.leaseID = ""
	u.requeues++
	co.avail = append(co.avail, l.unit)
	return nil
}

// markUnitDone persists and applies a unit's completion. Caller holds
// mu.
func (co *Coordinator) markUnitDone(sh exp.Shard, leaseID string) error {
	if err := co.logEvent(stateEvent{Ev: "done", Unit: sh.String(), Lease: leaseID}); err != nil {
		return fmt.Errorf("cluster: persist done: %w", err)
	}
	u := co.units[sh]
	u.state = unitDone
	if u.leaseID != "" {
		delete(co.leases, u.leaseID)
		u.leaseID = ""
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
			if err := co.markUnitDone(sh, u.leaseID); err != nil {
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
	if err := co.logEvent(stateEvent{Ev: "end", State: state}); err != nil {
		return fmt.Errorf("cluster: persist end: %w", err)
	}
	co.ended = state
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

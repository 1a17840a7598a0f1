package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"tightsched/internal/analytic"
	"tightsched/internal/avail"
	"tightsched/internal/grid"
	"tightsched/internal/platform"
	"tightsched/internal/rng"
	"tightsched/internal/sched"
)

// This file is the online-grid campaign harness: the Table IV
// counterpart of sweep.go. A GridSweep's axes are arrival processes ×
// admission policies × preemption policies × trials; each instance is
// one full online simulation (grid.Simulate), keyed and journaled like
// sweep instances so grid campaigns shard, resume and re-render
// byte-identically.

// GridSweep describes an online multi-application campaign: its
// identity (GridSpec, stamped into journal headers) plus the runtime
// Workers knob. Two sweeps with equal specs produce byte-identical
// results on any machine and worker count.
type GridSweep struct {
	GridSpec

	// Workers bounds campaign parallelism (GOMAXPROCS when 0). Runtime
	// knob, absent from GridSpec.
	Workers int
}

// PaperOnlineSweep returns the full online campaign: both arrival kinds,
// all built-in policies, five trials over a 100k-slot horizon.
func PaperOnlineSweep() GridSweep {
	return GridSweep{GridSpec: GridSpec{
		Tiers:      []platform.SpeedTier{{Count: 4, Speed: 1}, {Count: 8, Speed: 2}, {Count: 8, Speed: 4}},
		Ncom:       6,
		AppProcs:   4,
		M:          5,
		Iterations: 5,
		Horizon:    100_000,
		Heuristic:  "IE",
		Model:      "diurnal",
		Seed:       20130522, // HCW 2013
		Trials:     5,
		Arrivals: []grid.ArrivalSpec{
			{Kind: grid.KindPoisson, MeanGap: 150, Apps: 30, WminLo: 1, WminHi: 3, DeadlineFactor: 15},
			{Kind: grid.KindTrace, Trace: QuickOnlineTrace()},
		},
		Admissions:  []string{"fcfs", "sjf", "edf"},
		Preemptions: []string{"none", "lowest-priority"},
	}}
}

// QuickOnlineSweep returns a reduced online campaign preserving the
// sweep's shape (both arrival kinds, three admission and two preemption
// policies, heterogeneous tiers, the diurnal model) at a fraction of the
// cost — the grid counterpart of QuickSweep, and the campaign behind
// `cmd/tables -table 4` and the daemon's quick grid preset.
func QuickOnlineSweep() GridSweep {
	g := PaperOnlineSweep()
	g.Horizon = 20_000
	g.Trials = 2
	g.Tiers = []platform.SpeedTier{{Count: 4, Speed: 1}, {Count: 4, Speed: 2}, {Count: 4, Speed: 4}}
	g.Arrivals[0].MeanGap = 120
	g.Arrivals[0].Apps = 12
	return g
}

// QuickOnlineTrace is the recorded arrival log both online campaign
// presets replay: a morning burst of small jobs, two heavyweights, and a
// deadline-free backfill tail.
func QuickOnlineTrace() []grid.Arrival {
	return []grid.Arrival{
		{T: 0, App: "burst-0", Wmin: 1, Deadline: 700},
		{T: 40, App: "burst-1", Wmin: 1, Deadline: 700},
		{T: 80, App: "burst-2", Wmin: 2, Deadline: 1200},
		{T: 120, App: "burst-3", Wmin: 1, Deadline: 700},
		{T: 160, App: "burst-4", Wmin: 1, Deadline: 400},
		{T: 900, App: "heavy-0", Wmin: 3, Deadline: 4000},
		{T: 950, App: "heavy-1", Wmin: 3, Deadline: 4000},
		{T: 1000, App: "rush-0", Wmin: 1, Deadline: 500},
		{T: 2400, App: "backfill-0", Wmin: 2},
		{T: 2500, App: "backfill-1", Wmin: 1, Deadline: 900},
	}
}

// shape returns the sweep's per-application workload shape.
func (g *GridSweep) shape() grid.Shape {
	return grid.Shape{M: g.M, Iterations: g.Iterations, AppProcs: g.AppProcs, Ncom: g.Ncom}
}

// platformSize returns the tiered platform's processor count.
func (g *GridSweep) platformSize() int {
	p := 0
	for _, t := range g.Tiers {
		p += t.Count
	}
	return p
}

// Validate checks the campaign parameters, resolving every axis name
// through its registry so externally registered policies, heuristics and
// models are first-class.
func (g *GridSweep) Validate() error {
	if len(g.Tiers) == 0 {
		return fmt.Errorf("exp: grid sweep without speed tiers")
	}
	for _, t := range g.Tiers {
		if t.Count <= 0 || t.Speed <= 0 {
			return fmt.Errorf("exp: invalid speed tier %+v", t)
		}
	}
	if err := g.shape().Validate(); err != nil {
		return err
	}
	if g.AppProcs > g.platformSize() {
		return fmt.Errorf("exp: block of %d processors exceeds platform size %d", g.AppProcs, g.platformSize())
	}
	if g.Horizon <= 0 {
		return fmt.Errorf("exp: grid horizon %d, want positive", g.Horizon)
	}
	if g.Trials <= 0 {
		return fmt.Errorf("exp: grid trials %d, want positive", g.Trials)
	}
	if g.Workers < 0 {
		return fmt.Errorf("exp: negative grid workers %d", g.Workers)
	}
	if _, ok := sched.Lookup(g.Heuristic); !ok {
		return fmt.Errorf("exp: unknown heuristic %q", g.Heuristic)
	}
	if _, err := avail.Builtin(g.Model); err != nil {
		return err
	}
	if len(g.Arrivals) == 0 {
		return fmt.Errorf("exp: grid sweep without arrival processes")
	}
	seen := map[string]bool{}
	for _, a := range g.Arrivals {
		if err := a.Validate(); err != nil {
			return err
		}
		if seen[a.Name()] {
			return fmt.Errorf("exp: duplicate arrival process %q (label one)", a.Name())
		}
		seen[a.Name()] = true
	}
	if len(g.Admissions) == 0 || len(g.Preemptions) == 0 {
		return fmt.Errorf("exp: grid sweep without admission/preemption policies")
	}
	seenA := map[string]bool{}
	for _, name := range g.Admissions {
		if _, err := grid.Admission(name); err != nil {
			return err
		}
		if seenA[name] {
			return fmt.Errorf("exp: duplicate admission policy %q", name)
		}
		seenA[name] = true
	}
	seenP := map[string]bool{}
	for _, name := range g.Preemptions {
		if _, err := grid.Preemption(name); err != nil {
			return err
		}
		if seenP[name] {
			return fmt.Errorf("exp: duplicate preemption policy %q", name)
		}
		seenP[name] = true
	}
	return nil
}

// InstanceCount returns the campaign's total instance count.
func (g *GridSweep) InstanceCount() int {
	return len(g.Arrivals) * len(g.Admissions) * len(g.Preemptions) * g.Trials
}

// GridTrialSeed derives the seed of one (arrival, trial) realization
// from the master seed. It does not depend on the admission or
// preemption policy — every policy combination faces the same platform,
// availability walk and arrival stream, the online analogue of
// Sweep.TrialSeed's heuristic independence.
func (g *GridSweep) GridTrialSeed(arrival string, trial int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(arrival); i++ {
		h ^= uint64(arrival[i])
		h *= 1099511628211
	}
	return rng.NewKeyed(g.Seed, 0x9d1d, h, uint64(trial)).Uint64()
}

// arrivalSpec resolves an arrival-axis label back to its spec.
func (g *GridSweep) arrivalSpec(name string) (grid.ArrivalSpec, error) {
	for _, a := range g.Arrivals {
		if a.Name() == name {
			return a, nil
		}
	}
	return grid.ArrivalSpec{}, fmt.Errorf("exp: unknown arrival process %q", name)
}

// gridPlatform deterministically regenerates the platform of one
// (arrival, trial) realization.
func (g *GridSweep) gridPlatform(trialSeed uint64) *platform.Platform {
	cfg := platform.TieredConfig{Tiers: g.Tiers, Ncom: g.Ncom, StayLo: 0.90, StayHi: 0.99}
	return platform.GenerateTiered(cfg, rng.NewKeyed(trialSeed, 0x91a7))
}

// GridKey identifies one grid instance inside a campaign — the
// journal's coordinate key.
type GridKey struct {
	Arrival    string `json:"arrival"`
	Admission  string `json:"admission"`
	Preemption string `json:"preemption"`
	Trial      int    `json:"trial"`
}

// GridInstance is one online simulation's aggregated outcome. Sums (not
// means) are stored so downstream aggregation in sorted-key order is
// exact and byte-deterministic.
type GridInstance struct {
	GridKey
	// Apps is the number of applications that entered the grid;
	// Completed of them finished inside the horizon; Missed violated
	// their deadline; Preempted counts evictions.
	Apps      int `json:"apps"`
	Completed int `json:"completed"`
	Missed    int `json:"missed"`
	Preempted int `json:"preempted"`
	// RespSum and SlowSum sum response slots and slowdowns over the
	// completed applications.
	RespSum int64   `json:"respSum"`
	SlowSum float64 `json:"slowSum"`
	// Makespan is the grid makespan: the last completion slot, or the
	// horizon when any application is unfinished.
	Makespan int64 `json:"makespan"`
}

// Key returns the instance's coordinate key.
func (i GridInstance) Key() GridKey { return i.GridKey }

// GridResult is a completed (or journal-loaded partial) grid campaign.
type GridResult struct {
	Sweep     GridSweep
	Instances []GridInstance
}

// RunGrid executes the campaign on the campaign executor: cancelling
// ctx stops it at instance boundaries, and every instance completed by
// then is journaled. j, when set, journals every instance and skips the
// ones it already holds; progress (optional) receives completion counts
// once after journal replay and after every live instance; tele
// (optional) receives live engine gauges, such as the daemon's /metrics.
// Results are canonically sorted, so any worker count — and any resume
// split — produces identical bytes.
func RunGrid(ctx context.Context, g GridSweep, j *GridJournal, progress func(done, total int), tele grid.Telemetry) (*GridResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	// One model instance for the whole campaign: Model implementations
	// are concurrency-safe and memoize their calibration fits, so every
	// instance shares the fitted believed matrices.
	model, err := avail.Builtin(g.Model)
	if err != nil {
		return nil, err
	}
	if j != nil {
		if err := j.matches(g.Spec(), Shard{}); err != nil {
			return nil, err
		}
	}
	keys := make([]GridKey, 0, g.InstanceCount())
	for _, a := range g.Arrivals {
		for _, adm := range g.Admissions {
			for _, pre := range g.Preemptions {
				for trial := 0; trial < g.Trials; trial++ {
					keys = append(keys, GridKey{Arrival: a.Name(), Admission: adm, Preemption: pre, Trial: trial})
				}
			}
		}
	}
	trials := newGridTrials(&g, model)
	c := campaign[GridKey, GridInstance, GridSpec, GridKey]{
		journal: j,
		keys:    keys,
		unit:    1,
		workers: g.Workers,
		// One analytic platform cache per worker (caches are goroutine-
		// confined): every admission of every instance the worker runs
		// reuses the platforms of the blocks it has seen.
		newRun: func() poolRun[GridKey, GridInstance] {
			cache := analytic.NewPlatformCache()
			return func(ctx context.Context, key GridKey, emit func(GridInstance)) error {
				tr := trials.acquire(key)
				defer trials.release(key)
				inst, err := g.runInstance(ctx, key, tr, model, cache, tele)
				if err == nil {
					emit(inst)
				}
				return err
			}
		},
	}
	instances := make([]GridInstance, 0, len(keys))
	err = c.run(ctx,
		func(_, live []GridKey) []GridKey {
			trials.add(live)
			return live
		},
		func(inst GridInstance, _ bool, _, _ int) bool {
			instances = append(instances, inst)
			return true
		},
		func(done, total int) bool {
			if progress != nil {
				progress(done, total)
			}
			return true
		})
	if err != nil {
		return nil, err
	}
	sortGridInstances(instances)
	return &GridResult{Sweep: g, Instances: instances}, nil
}

// gridTrial is what every policy combination of one (arrival, trial)
// shares: the platform draw and the availability history.
type gridTrial struct {
	seed     uint64
	platform *platform.Platform
	history  *grid.History
	// pending counts the campaign's jobs of this trial not yet finished.
	pending int
}

// gridTrials hands the jobs of a campaign their trial's shared state,
// built on the first job to need it and dropped after the last one
// finishes, so a trial's walk is materialized once for all its policy
// instances and held only while any of them is still to run.
type gridTrials struct {
	g     *GridSweep
	model avail.Model
	mu    sync.Mutex
	byKey map[gridTrialKey]*gridTrial
}

type gridTrialKey struct {
	arrival string
	trial   int
}

func newGridTrials(g *GridSweep, model avail.Model) *gridTrials {
	return &gridTrials{g: g, model: model, byKey: make(map[gridTrialKey]*gridTrial)}
}

// add counts the campaign's jobs against their trials. It runs before
// any job starts.
func (ts *gridTrials) add(jobs []GridKey) {
	for _, key := range jobs {
		k := gridTrialKey{key.Arrival, key.Trial}
		tr := ts.byKey[k]
		if tr == nil {
			tr = &gridTrial{seed: ts.g.GridTrialSeed(key.Arrival, key.Trial)}
			ts.byKey[k] = tr
		}
		tr.pending++
	}
}

// acquire returns the trial state of key's job, building it on first use.
func (ts *gridTrials) acquire(key GridKey) *gridTrial {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	tr := ts.byKey[gridTrialKey{key.Arrival, key.Trial}]
	if tr.history == nil {
		tr.platform = ts.g.gridPlatform(tr.seed)
		tr.history = grid.NewHistory(ts.model, tr.platform, tr.seed)
	}
	return tr
}

// release marks key's job finished, dropping its trial's state after the
// trial's last job.
func (ts *gridTrials) release(key GridKey) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	k := gridTrialKey{key.Arrival, key.Trial}
	tr := ts.byKey[k]
	tr.pending--
	if tr.pending == 0 {
		delete(ts.byKey, k)
	}
}

// runInstance executes one online simulation on its trial's shared
// platform and history and aggregates its report.
func (g *GridSweep) runInstance(ctx context.Context, key GridKey, tr *gridTrial, model avail.Model,
	cache *analytic.PlatformCache, tele grid.Telemetry) (GridInstance, error) {
	seed := tr.seed
	spec, err := g.arrivalSpec(key.Arrival)
	if err != nil {
		return GridInstance{}, err
	}
	adm, err := grid.Admission(key.Admission)
	if err != nil {
		return GridInstance{}, err
	}
	pre, err := grid.Preemption(key.Preemption)
	if err != nil {
		return GridInstance{}, err
	}
	shape := g.shape()
	rep, err := grid.Simulate(ctx, grid.Scenario{
		Platform:      tr.platform,
		Model:         model,
		Shape:         shape,
		Horizon:       g.Horizon,
		Heuristic:     g.Heuristic,
		Seed:          seed,
		Arrivals:      spec.Materialize(rng.NewKeyed(seed, 0xa221), shape),
		Admission:     adm,
		Preemption:    pre,
		Telemetry:     tele,
		History:       tr.history,
		AnalyticCache: cache,
	})
	if err != nil {
		return GridInstance{}, err
	}
	inst := GridInstance{GridKey: key, Makespan: rep.Makespan}
	for _, a := range rep.Apps {
		inst.Apps++
		inst.Preempted += a.Preemptions
		if a.Missed {
			inst.Missed++
		}
		if a.Completed {
			inst.Completed++
			inst.RespSum += a.Response
			inst.SlowSum += a.Slowdown
		}
	}
	return inst, nil
}

// sortGridInstances orders instances canonically — the single order
// every worker count, resume split and journal replay converges to.
func sortGridInstances(instances []GridInstance) {
	sort.Slice(instances, func(i, j int) bool {
		a, b := instances[i], instances[j]
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		if a.Admission != b.Admission {
			return a.Admission < b.Admission
		}
		if a.Preemption != b.Preemption {
			return a.Preemption < b.Preemption
		}
		return a.Trial < b.Trial
	})
}

// GridSpec is a GridSweep's serializable identity — every parameter that
// affects results, and nothing that only affects execution (Workers).
// It is the journal header of grid campaigns and the stamped identity
// the daemon reports; arrival traces ride inline, so a journaled trace
// campaign resumes headlessly with no trace file around.
type GridSpec struct {
	// Tiers is the heterogeneous platform's speed profile; the platform
	// is regenerated per (arrival, trial) from the trial seed.
	Tiers []platform.SpeedTier `json:"tiers"`
	// Ncom is each application's master communication capacity.
	Ncom int `json:"ncom"`
	// AppProcs is the exclusive processor block per admitted
	// application.
	AppProcs int `json:"appProcs"`
	// M and Iterations shape every application (arrivals vary wmin).
	M          int `json:"m"`
	Iterations int `json:"iterations"`
	// Horizon is the observation window in slots.
	Horizon int64 `json:"horizon"`
	// Heuristic schedules each admitted application (one of
	// sched.Names()).
	Heuristic string `json:"heuristic"`
	// Model is the ground-truth availability model's registry name
	// (avail.Names()); the online default is "diurnal".
	Model string `json:"model"`
	// Seed is the campaign master seed.
	Seed uint64 `json:"seed"`
	// Trials is the number of availability/arrival realizations per
	// policy combination.
	Trials int `json:"trials"`
	// Arrivals, Admissions and Preemptions are the campaign axes.
	Arrivals    []grid.ArrivalSpec `json:"arrivals"`
	Admissions  []string           `json:"admissions"`
	Preemptions []string           `json:"preemptions"`
}

// Spec returns the sweep's identity.
func (g *GridSweep) Spec() GridSpec { return g.GridSpec }

// Sweep reconstructs the campaign a spec identifies.
func (sp GridSpec) Sweep() GridSweep { return GridSweep{GridSpec: sp} }

// gridKind is the grid journal's codec. A grid campaign writes about a
// hundred records, so their JSON stays on encoding/json.
var gridKind = &journalKind[GridKey, GridInstance, GridSpec]{
	kind: "grid",
	key:  GridInstance.Key,
	sort: sortGridInstances,
	marshalJSON: func(dst []byte, in GridInstance) ([]byte, error) {
		b, err := json.Marshal(in)
		return append(dst, b...), err
	},
	unmarshalJSON: func(b []byte, _ map[string]string) (GridInstance, error) {
		var in GridInstance
		err := json.Unmarshal(b, &in)
		return in, err
	},
	appendBinary: appendBinaryGridEntry,
	decodeBinary: decodeBinaryGridEntry,
}

// GridJournal is the append-only journal of an online campaign, keyed by
// (arrival, admission, preemption, trial): the sweep Journal's
// crash-tolerant substrate with a "grid" kind marker and no shard stamp.
type GridJournal = journal[GridKey, GridInstance, GridSpec]

// CreateGridJournal starts a new JSONL journal for the campaign. It
// refuses to clobber an existing file.
func CreateGridJournal(path string, g *GridSweep) (*GridJournal, error) {
	return CreateGridJournalFormat(path, g, FormatJSONL)
}

// CreateGridJournalFormat is CreateGridJournal with an explicit on-disk
// format.
func CreateGridJournalFormat(path string, g *GridSweep, format Format) (*GridJournal, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return createJournal(gridKind, path, format, g.Spec(), Shard{})
}

// OpenGridJournal reopens an existing journal for appending, dropping a
// crash-torn tail. The journal's spec must match the campaign exactly.
func OpenGridJournal(path string, g *GridSweep) (*GridJournal, error) {
	return openJournal(gridKind, path, func(j *GridJournal) error { return j.matches(g.Spec(), Shard{}) })
}

// ResumeGrid completes a journaled online campaign: the sweep comes from
// the header, journaled instances replay, and only missing ones run, on
// workers goroutines (GOMAXPROCS when 0 — the header holds no runtime
// knobs). progress and tele are RunGrid's. The result is bit-identical
// to an uninterrupted run (instances are deterministic and canonically
// sorted).
func ResumeGrid(ctx context.Context, path string, workers int, progress func(done, total int), tele grid.Telemetry) (*GridResult, error) {
	return resume(gridKind, path, func(j *GridJournal) (*GridResult, error) {
		g := j.Spec().Sweep()
		g.Workers = workers
		return RunGrid(ctx, g, j, progress, tele)
	})
}

// TableIVRow is one aggregated Table IV line: a policy combination's SLO
// metrics over an arrival process.
type TableIVRow struct {
	Arrival    string
	Admission  string
	Preemption string
	// Apps/Completed/Missed/Preempted sum over the combination's trials.
	Apps, Completed, Missed, Preempted int
	// MissPct is 100·Missed/Apps; MeanResponse and MeanSlowdown average
	// over completed applications; MeanMakespan averages the per-trial
	// grid makespans.
	MissPct      float64
	MeanResponse float64
	MeanSlowdown float64
	MeanMakespan float64
}

// TableIV aggregates the campaign into its Table IV rows, grouped by
// (arrival, admission, preemption) in the canonical instance order. It
// groups a canonically sorted copy of Instances, so each row sums its
// combination's trials in trial order over journaled integer sums, and
// the floats — and the rendered artifact — are bit-identical across
// worker counts, shards, resumes and journal replays.
func (r *GridResult) TableIV() []TableIVRow {
	insts := slices.Clone(r.Instances)
	sortGridInstances(insts)
	var rows []TableIVRow
	for len(insts) > 0 {
		n := 1
		for n < len(insts) && insts[n].Arrival == insts[0].Arrival &&
			insts[n].Admission == insts[0].Admission && insts[n].Preemption == insts[0].Preemption {
			n++
		}
		rows = append(rows, tableIVRow(insts[:n]))
		insts = insts[n:]
	}
	return rows
}

// tableIVRow folds one policy combination's trials, in trial order, into
// its row.
func tableIVRow(insts []GridInstance) TableIVRow {
	row := TableIVRow{Arrival: insts[0].Arrival, Admission: insts[0].Admission, Preemption: insts[0].Preemption}
	var respSum, makespanSum int64
	slowSum := 0.0
	for _, in := range insts {
		row.Apps += in.Apps
		row.Completed += in.Completed
		row.Missed += in.Missed
		row.Preempted += in.Preempted
		respSum += in.RespSum
		slowSum += in.SlowSum
		makespanSum += in.Makespan
	}
	if row.Apps > 0 {
		row.MissPct = 100 * float64(row.Missed) / float64(row.Apps)
	}
	if row.Completed > 0 {
		row.MeanResponse = float64(respSum) / float64(row.Completed)
		row.MeanSlowdown = slowSum / float64(row.Completed)
	} else {
		row.MeanSlowdown = math.NaN()
		row.MeanResponse = math.NaN()
	}
	row.MeanMakespan = float64(makespanSum) / float64(len(insts))
	return row
}

// FormatTableIV renders Table IV rows in the experiment tables' fixed
// layout.
func FormatTableIV(rows []TableIVRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-6s %-16s %5s %5s %6s %6s %9s %8s %10s\n",
		"arrival", "adm", "preempt", "apps", "done", "evict", "miss%", "resp", "slowdn", "makespan")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-6s %-16s %5d %5d %6d %6.1f %9.2f %8.2f %10.0f\n",
			r.Arrival, r.Admission, r.Preemption, r.Apps, r.Completed, r.Preempted,
			r.MissPct, r.MeanResponse, r.MeanSlowdown, r.MeanMakespan)
	}
	return b.String()
}

package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

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

// GridSweep describes an online multi-application campaign. The
// identity fields (everything but Workers) are stamped into journal
// headers via Spec; two sweeps with equal specs produce byte-identical
// results on any machine and worker count.
type GridSweep struct {
	// Tiers is the heterogeneous platform's speed profile; the platform
	// is regenerated per (arrival, trial) from the trial seed.
	Tiers []platform.SpeedTier
	// Ncom is each application's master communication capacity.
	Ncom int
	// AppProcs is the exclusive processor block per admitted
	// application.
	AppProcs int
	// M and Iterations shape every application (arrivals vary wmin).
	M, Iterations int
	// Horizon is the observation window in slots.
	Horizon int64
	// Heuristic schedules each admitted application (one of
	// sched.Names()).
	Heuristic string
	// Model is the ground-truth availability model's registry name
	// (avail.Names()); the online default is "diurnal".
	Model string
	// Seed is the campaign master seed.
	Seed uint64
	// Trials is the number of availability/arrival realizations per
	// policy combination.
	Trials int
	// Arrivals, Admissions and Preemptions are the campaign axes.
	Arrivals    []grid.ArrivalSpec
	Admissions  []string
	Preemptions []string

	// Workers bounds campaign parallelism (GOMAXPROCS when 0). Runtime
	// knob, absent from GridSpec.
	Workers int
}

// PaperOnlineSweep returns the full online campaign: both arrival kinds,
// all built-in policies, five trials over a 100k-slot horizon.
func PaperOnlineSweep() GridSweep {
	return GridSweep{
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
	}
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
	// agg carries an aggregation-only result's streaming Table IV
	// accumulator (AggregateGridJournal); nil when Instances is the
	// source of truth.
	agg *tableIVAccumulator
}

// GridRunOptions are the execution knobs of RunGridContext; the zero
// value runs with GOMAXPROCS workers, no journal, no callbacks.
type GridRunOptions struct {
	// Workers overrides the sweep's worker count when positive.
	Workers int
	// Journal persists each instance as it completes; instances already
	// journaled are replayed, not re-run (resume is bit-identical —
	// instances are deterministic and canonically sorted).
	Journal *GridJournal
	// Progress is called after every completed (or replayed) instance.
	Progress func(completed, total int)
	// Telemetry receives live engine gauges (the daemon's /metrics).
	Telemetry grid.Telemetry
}

// RunGridContext executes the campaign on the shared worker pool
// (runPool): cancelling ctx stops it at instance boundaries, and every
// instance completed by then is journaled. Results are canonically
// sorted, so any worker count — and any resume split — produces
// identical bytes.
func RunGridContext(ctx context.Context, g GridSweep, opt GridRunOptions) (*GridResult, error) {
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
	if opt.Journal != nil {
		if err := opt.Journal.matches(g.Spec(), Shard{}); err != nil {
			return nil, err
		}
	}

	total := g.InstanceCount()
	instances := make([]GridInstance, 0, total)
	var jobs []GridKey
	for _, a := range g.Arrivals {
		for _, adm := range g.Admissions {
			for _, pre := range g.Preemptions {
				for trial := 0; trial < g.Trials; trial++ {
					key := GridKey{Arrival: a.Name(), Admission: adm, Preemption: pre, Trial: trial}
					if opt.Journal != nil {
						if inst, ok := opt.Journal.Done(key); ok {
							instances = append(instances, inst)
							continue
						}
					}
					jobs = append(jobs, key)
				}
			}
		}
	}
	if opt.Progress != nil {
		opt.Progress(len(instances), total)
	}

	workers := g.Workers
	if opt.Workers > 0 {
		workers = opt.Workers
	}
	run := func(ctx context.Context, key GridKey, emit func(GridInstance)) error {
		inst, err := g.runInstance(ctx, key, model, opt.Telemetry)
		if err == nil {
			emit(inst)
		}
		return err
	}
	err = runPool(ctx, workers, jobs, func() poolRun[GridKey, GridInstance] { return run },
		func(inst GridInstance) error {
			if opt.Journal != nil {
				if err := opt.Journal.Append(inst); err != nil {
					return err
				}
			}
			instances = append(instances, inst)
			if opt.Progress != nil {
				opt.Progress(len(instances), total)
			}
			return nil
		})
	if err == nil && len(instances) < total {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	sortGridInstances(instances)
	return &GridResult{Sweep: g, Instances: instances}, nil
}

// runInstance executes one online simulation and aggregates its report.
func (g *GridSweep) runInstance(ctx context.Context, key GridKey, model avail.Model, tele grid.Telemetry) (GridInstance, error) {
	seed := g.GridTrialSeed(key.Arrival, key.Trial)
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
		Platform:   g.gridPlatform(seed),
		Model:      model,
		Shape:      shape,
		Horizon:    g.Horizon,
		Heuristic:  g.Heuristic,
		Seed:       seed,
		Arrivals:   spec.Materialize(rng.NewKeyed(seed, 0xa221), shape),
		Admission:  adm,
		Preemption: pre,
		Telemetry:  tele,
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
	Tiers       []platform.SpeedTier `json:"tiers"`
	Ncom        int                  `json:"ncom"`
	AppProcs    int                  `json:"appProcs"`
	M           int                  `json:"m"`
	Iterations  int                  `json:"iterations"`
	Horizon     int64                `json:"horizon"`
	Heuristic   string               `json:"heuristic"`
	Model       string               `json:"model"`
	Seed        uint64               `json:"seed"`
	Trials      int                  `json:"trials"`
	Arrivals    []grid.ArrivalSpec   `json:"arrivals"`
	Admissions  []string             `json:"admissions"`
	Preemptions []string             `json:"preemptions"`
}

// Spec returns the sweep's identity.
func (g *GridSweep) Spec() GridSpec {
	return GridSpec{
		Tiers:       g.Tiers,
		Ncom:        g.Ncom,
		AppProcs:    g.AppProcs,
		M:           g.M,
		Iterations:  g.Iterations,
		Horizon:     g.Horizon,
		Heuristic:   g.Heuristic,
		Model:       g.Model,
		Seed:        g.Seed,
		Trials:      g.Trials,
		Arrivals:    g.Arrivals,
		Admissions:  g.Admissions,
		Preemptions: g.Preemptions,
	}
}

// Sweep reconstructs the campaign a spec identifies.
func (sp GridSpec) Sweep() GridSweep {
	return GridSweep{
		Tiers:       sp.Tiers,
		Ncom:        sp.Ncom,
		AppProcs:    sp.AppProcs,
		M:           sp.M,
		Iterations:  sp.Iterations,
		Horizon:     sp.Horizon,
		Heuristic:   sp.Heuristic,
		Model:       sp.Model,
		Seed:        sp.Seed,
		Trials:      sp.Trials,
		Arrivals:    sp.Arrivals,
		Admissions:  sp.Admissions,
		Preemptions: sp.Preemptions,
	}
}

// gridKind is the grid journal's codec.
var gridKind = &journalKind[GridKey, GridInstance, GridSpec]{
	kind:        "grid",
	key:         GridInstance.Key,
	sort:        sortGridInstances,
	marshalJSON: func(in GridInstance) ([]byte, error) { return json.Marshal(in) },
	unmarshalJSON: func(b []byte) (GridInstance, error) {
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
// the header, journaled instances replay, and only missing ones run.
// The result is bit-identical to an uninterrupted run (instances are
// deterministic and canonically sorted).
func ResumeGrid(ctx context.Context, path string, opt GridRunOptions) (*GridResult, error) {
	j, err := openJournal(gridKind, path, nil)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	opt.Journal = j
	return RunGridContext(ctx, j.Spec().Sweep(), opt)
}

// LoadGridJournal loads a journal read-only into a (possibly partial)
// result, without running anything.
func LoadGridJournal(path string) (*GridResult, error) {
	j, _, err := readJournal(gridKind, path)
	if err != nil {
		return nil, err
	}
	return &GridResult{Sweep: j.Spec().Sweep(), Instances: j.Instances()}, nil
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
// (arrival, admission, preemption) in the canonical instance order.
// Aggregation runs through the incremental combo accumulator
// (aggregate.go), which replays each combination's trials in sorted
// order over journaled integer sums, so the floats — and the rendered
// artifact — are bit-identical across worker counts, shards, resumes
// and streaming journal replays.
func (r *GridResult) TableIV() []TableIVRow {
	acc := r.agg
	if acc == nil {
		acc = newTableIVAccumulator()
		for _, in := range r.Instances {
			acc.add(in)
		}
	}
	return acc.rows()
}

// finishTableIVRow derives a row's mean metrics from its accumulated
// sums (trials is the number of instances folded into the row).
func finishTableIVRow(row *TableIVRow, respSum int64, slowSum float64, makespanSum int64, trials int) {
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
	if trials > 0 {
		row.MeanMakespan = float64(makespanSum) / float64(trials)
	}
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

package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"time"

	"tightsched"
	"tightsched/internal/exp"
)

// campaignWorkers is every workload's campaign worker count.
const campaignWorkers = 2

// workload is one benchmark workload. setup builds the inputs from the
// seed — and, when tr is set, installs the traced twins — and run executes
// the measured phase, up to the rendered artifact.
type workload interface {
	setup(seed uint64, dir string, tr *tracer) error
	run(ctx context.Context) phase
	// verify cross-checks the phase's artifact through a second path
	// (journal replay); it runs after the measured phase, untraced only.
	verify(ph phase) error
}

// phase is the outcome of one measured phase.
type phase struct {
	// ops counts the units of throughput: simulations, applications that
	// entered the grid, or journal records appended.
	ops int
	// attempted counts operations: simulations, grid instances or
	// journal records. On err every attempted operation has failed.
	attempted int
	artifact  string
	// results is the per-instance outcome list of a campaign, one line
	// per instance under built-in names, in canonical order.
	results []string
	err     error
	// layers holds the layer metrics the workload measures itself
	// (journal and render calls, campaign event counters).
	layers map[string]float64
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "table1":
		return &table1{}, nil
	case "online":
		return &online{}, nil
	case "journal":
		return &journal{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have table1, online, journal)", name)
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// render times one artifact render into layers["exp.render_s"].
func render(res *tightsched.SweepResult, table int, layers map[string]float64) (string, error) {
	start := time.Now()
	art, err := tightsched.RenderTableArtifact(res, table)
	layers["exp.render_s"] += time.Since(start).Seconds()
	return art, err
}

// table1 is the paper's headline artifact: quick Table I on the batch
// core with a JSONL journal attached. The failure cap is 20,000 slots
// instead of the quick sweep's 100,000: at 100,000 the few instances that
// run into the cap cost up to half of all simulated slots, and how many
// there are swings a campaign's run time by 2x from seed to seed.
type table1 struct {
	plain   tightsched.Sweep // the campaign under built-in names
	sweep   tightsched.Sweep // the campaign run (traced twins when traced)
	path    string
	journal *tightsched.SweepJournal
	tr      *tracer
	obs     *observer
}

func (w *table1) setup(seed uint64, dir string, tr *tracer) error {
	sw := tightsched.QuickSweep(5)
	sw.Cap = 20_000
	sw.Seed = seed
	sw.Advance = tightsched.AdvanceBatch
	w.plain, w.sweep, w.tr = sw, sw, tr
	if tr != nil {
		heuristics := tightsched.PaperHeuristics()
		if err := tr.registerHeuristics(heuristics); err != nil {
			return err
		}
		w.sweep.Heuristics = tr.names(heuristics)
		w.sweep.Models = []tightsched.AvailabilityModel{tr.model(tightsched.MarkovModel{}, "markov")}
		w.obs = &observer{}
	}
	w.path = filepath.Join(dir, "table1.jsonl")
	j, err := tightsched.CreateSweepJournalFormat(w.path, w.sweep, tightsched.SweepShard{}, tightsched.JournalJSONL)
	if err != nil {
		return err
	}
	w.journal = j
	return nil
}

func (w *table1) run(ctx context.Context) phase {
	ph := phase{attempted: w.sweep.InstanceCount() * len(tightsched.PaperHeuristics()), layers: map[string]float64{}}
	opts := []tightsched.Option{tightsched.WithJournal(w.journal), tightsched.WithWorkers(campaignWorkers)}
	if w.obs != nil {
		w.obs.last = time.Now()
		opts = append(opts, tightsched.WithObserver(w.obs))
	}
	res, err := tightsched.NewSession().RunSweep(ctx, w.sweep, opts...)
	if cerr := w.journal.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close journal: %w", cerr)
	}
	if err != nil {
		ph.err = err
		return ph
	}
	if w.tr != nil {
		// Render under built-in names: Table I's reference is IE.
		insts := make([]tightsched.SweepInstance, len(res.Instances))
		for i, in := range res.Instances {
			in.Heuristic = w.tr.strip(in.Heuristic)
			insts[i] = in
		}
		res = &tightsched.SweepResult{Sweep: w.plain, Instances: insts}
		w.obs.export(ph.layers)
	}
	ph.ops = len(res.Instances)
	for _, in := range res.Instances {
		ph.results = append(ph.results, fmt.Sprintf("%s %d %d %d %d %s %d %t",
			in.Model, in.Point.Ncom, in.Point.Wmin, in.Point.Scenario, in.Trial, in.Heuristic, in.Makespan, in.Failed))
	}
	ph.layers["exp.appends"] = float64(len(res.Instances))
	ph.artifact, ph.err = render(res, 1, ph.layers)
	return ph
}

func (w *table1) verify(ph phase) error {
	res, err := tightsched.AggregateSweepJournal(w.path)
	if err != nil {
		return err
	}
	art, err := tightsched.RenderTableArtifact(res, 1)
	if err != nil {
		return err
	}
	if art != ph.artifact {
		return fmt.Errorf("table1: Table I replayed from the journal differs from the live campaign's")
	}
	return nil
}

// observer is the traced table1 run's campaign-event consumer: it counts
// events, the time the consumer spent waiting for each, and the batched
// cells' sharing counters.
type observer struct {
	events int
	wait   time.Duration
	last   time.Time
	cells  int
	cache  tightsched.SweepCacheStats
}

func (o *observer) event() {
	now := time.Now()
	o.wait += now.Sub(o.last)
	o.last = now
	o.events++
}

func (o *observer) OnInstanceDone(tightsched.InstanceDone) { o.event() }
func (o *observer) OnProgress(tightsched.Progress)         { o.event() }

func (o *observer) OnPointDone(ev tightsched.PointDone) {
	o.event()
	if ev.Cache != nil {
		o.cells++
		o.cache.Add(*ev.Cache)
	}
}

func (o *observer) export(layers map[string]float64) {
	c := o.cache
	layers["exp.events"] = float64(o.events)
	layers["exp.wait_s"] = o.wait.Seconds()
	layers["sim.cells"] = float64(o.cells)
	layers["sched.share_hits"] = float64(c.DecisionHits)
	layers["sched.share_misses"] = float64(c.DecisionMisses)
	layers["sched.share_hit_ratio"] = ratio(float64(c.DecisionHits), float64(c.DecisionHits+c.DecisionMisses))
	layers["sched.share_classes_max"] = float64(c.DecisionClasses)
	layers["analytic.memo_hits"] = float64(c.MemoHits)
	layers["analytic.memo_misses"] = float64(c.MemoMisses)
	layers["analytic.memo_hit_ratio"] = ratio(float64(c.MemoHits), float64(c.MemoHits+c.MemoMisses))
	layers["analytic.memo_entries_max"] = float64(c.MemoEntries)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// online is a Table IV grid: the paper-scale online campaign with a
// heavier Poisson stream, every built-in policy pair, and ten trials.
type online struct {
	plain   tightsched.OnlineSweep
	sweep   tightsched.OnlineSweep
	path    string
	journal *tightsched.OnlineJournal
	tr      *tracer
}

func (w *online) setup(seed uint64, dir string, tr *tracer) error {
	g := tightsched.PaperOnlineSweep()
	g.Arrivals[0].Apps = 300
	g.Arrivals[0].MeanGap = 100
	g.Trials = 10
	g.Seed = seed
	w.plain, w.sweep, w.tr = g, g, tr
	if tr != nil {
		if err := tr.registerHeuristics([]string{g.Heuristic}); err != nil {
			return err
		}
		if err := tr.registerModel(g.Model); err != nil {
			return err
		}
		if err := tr.registerPolicies(g.Admissions, g.Preemptions); err != nil {
			return err
		}
		w.sweep.Heuristic = tr.name(g.Heuristic)
		w.sweep.Model = tr.name(g.Model)
		w.sweep.Admissions = tr.names(g.Admissions)
		w.sweep.Preemptions = tr.names(g.Preemptions)
	}
	w.path = filepath.Join(dir, "online.jsonl")
	j, err := tightsched.CreateOnlineJournal(w.path, w.sweep)
	if err != nil {
		return err
	}
	w.journal = j
	return nil
}

func (w *online) run(ctx context.Context) phase {
	ph := phase{attempted: w.sweep.InstanceCount(), layers: map[string]float64{}}
	res, err := tightsched.NewSession().RunOnline(ctx, w.sweep,
		tightsched.WithWorkers(campaignWorkers), tightsched.WithOnlineJournal(w.journal))
	if cerr := w.journal.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close journal: %w", cerr)
	}
	if err != nil {
		ph.err = err
		return ph
	}
	insts := res.Grid.Instances
	if w.tr != nil {
		// Render under built-in names: Table IV's title names the
		// heuristic and model.
		insts = make([]tightsched.OnlineInstance, len(res.Grid.Instances))
		for i, in := range res.Grid.Instances {
			in.Admission = w.tr.strip(in.Admission)
			in.Preemption = w.tr.strip(in.Preemption)
			insts[i] = in
		}
		res = &tightsched.SweepResult{Grid: &tightsched.OnlineResult{Sweep: w.plain, Instances: insts}}
	}
	evictions, completed := 0, 0
	for _, in := range insts {
		ph.ops += in.Apps
		evictions += in.Preempted
		completed += in.Completed
		ph.results = append(ph.results, fmt.Sprintf("%s %s %s %d %d %d %d %d %d %v %d",
			in.Arrival, in.Admission, in.Preemption, in.Trial, in.Apps, in.Completed, in.Missed, in.Preempted,
			in.RespSum, math.Float64bits(in.SlowSum), in.Makespan))
	}
	ph.layers["exp.appends"] = float64(len(insts))
	ph.layers["grid.evictions"] = float64(evictions)
	if w.tr != nil {
		// Every admission, first or after an eviction, builds a heuristic.
		ph.layers["grid.useful_run_ratio"] = ratio(float64(completed), float64(w.tr.runs.Load()))
	}
	ph.artifact, ph.err = render(res, 4, ph.layers)
	return ph
}

func (w *online) verify(ph phase) error {
	res, err := tightsched.AggregateOnlineJournal(w.path)
	if err != nil {
		return err
	}
	art, err := tightsched.RenderTableArtifact(res, 4)
	if err != nil {
		return err
	}
	if art != ph.artifact {
		return fmt.Errorf("online: Table IV replayed from the journal differs from the live campaign's")
	}
	return nil
}

// journalHeuristics is the journal workload's heuristic axis: eight of the
// paper's heuristics, IE (the tables' reference) among them.
var journalHeuristics = []string{"IP", "IE", "IY", "IAY", "P-IE", "E-IE", "Y-IE", "RANDOM"}

// journal is the codec and aggregation path alone: synthetic instance
// records of a Table II-shaped campaign appended to a JSONL and a binary
// journal, each replayed into Table II.
type journal struct {
	records []tightsched.SweepInstance
	paths   [2]string
	jours   [2]*tightsched.SweepJournal
}

var journalFormats = [2]struct {
	name   string
	format tightsched.JournalFormat
}{{"jsonl", tightsched.JournalJSONL}, {"binary", tightsched.JournalBinary}}

func (w *journal) setup(seed uint64, dir string, _ *tracer) error {
	sw := tightsched.QuickSweep(10)
	sw.Scenarios = 10
	sw.Trials = 333
	sw.Seed = seed
	sw.Heuristics = journalHeuristics
	w.records = synthRecords(sw, seed)
	for i, f := range journalFormats {
		w.paths[i] = filepath.Join(dir, "journal."+f.name)
		j, err := tightsched.CreateSweepJournalFormat(w.paths[i], sw, tightsched.SweepShard{}, f.format)
		if err != nil {
			return err
		}
		w.jours[i] = j
	}
	return nil
}

// synthRecords draws one record per (point, trial, heuristic) of the
// sweep: log-normal makespans around a point- and trial-dependent base,
// with about 1% of instances failing at the cap.
func synthRecords(sw tightsched.Sweep, seed uint64) []tightsched.SweepInstance {
	r := rand.New(rand.NewPCG(seed, 0x6a6f75726e616c))
	out := make([]tightsched.SweepInstance, 0, sw.InstanceCount()*len(sw.Heuristics))
	for _, ncom := range sw.Ncoms {
		for _, wmin := range sw.Wmins {
			for sc := 0; sc < sw.Scenarios; sc++ {
				pt := exp.Point{Ncom: ncom, Wmin: wmin, Scenario: sc}
				for trial := 0; trial < sw.Trials; trial++ {
					base := float64(60*wmin*sw.M/ncom+40*wmin) * math.Exp(0.4*r.NormFloat64())
					for _, h := range sw.Heuristics {
						in := tightsched.SweepInstance{Point: pt, Trial: trial, Model: "markov", Heuristic: h}
						if r.Float64() < 0.01 {
							in.Makespan, in.Failed = sw.Cap, true
						} else {
							in.Makespan = min(sw.Cap-1, int64(base*math.Exp(0.25*r.NormFloat64()))+1)
						}
						out = append(out, in)
					}
				}
			}
		}
	}
	return out
}

func (w *journal) run(ctx context.Context) phase {
	ph := phase{attempted: 2 * len(w.records), layers: map[string]float64{}}
	for i, f := range journalFormats {
		start := time.Now()
		for _, in := range w.records {
			if err := w.jours[i].Append(in); err != nil {
				ph.err = err
				return ph
			}
		}
		if err := w.jours[i].Close(); err != nil {
			ph.err = fmt.Errorf("close %s journal: %w", f.name, err)
			return ph
		}
		w.jours[i] = nil // a closed journal's in-memory index is garbage
		ph.layers["exp.append_"+f.name+"_s"] = time.Since(start).Seconds()
		ph.ops += len(w.records)
	}
	ph.layers["exp.appends"] = float64(ph.ops)
	var arts [2]string
	for i, f := range journalFormats {
		start := time.Now()
		res, err := tightsched.AggregateSweepJournal(w.paths[i])
		if err != nil {
			ph.err = err
			return ph
		}
		if arts[i], err = render(res, 2, ph.layers); err != nil {
			ph.err = err
			return ph
		}
		ph.layers["exp.replay_"+f.name+"_s"] = time.Since(start).Seconds()
	}
	if arts[0] != arts[1] {
		ph.err = fmt.Errorf("journal: Table II differs between the JSONL and binary replays")
		return ph
	}
	ph.artifact = arts[0]
	return ph
}

// verify has nothing to add: run already compares the two formats.
func (w *journal) verify(phase) error { return nil }

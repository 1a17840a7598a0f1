package exp

import (
	"fmt"
	"sort"
	"sync"

	"tightsched/internal/stats"
)

// This file holds the incremental table accumulators behind Tables I–IV:
// instances stream in (journal replay, DiscardInstances runs, or one
// memoized walk over Result.Instances) and tables render from O(cells)
// state — cells being (heuristic × scenario) for the offline tables and
// (policy combination) for Table IV — instead of re-walking a
// materialized instance slice per table.
//
// Byte parity with the slice-walking aggregation it replaced is held by
// construction:
//
//   - Win/fail/trial counters are integers, so resolving them per
//     coordinate group (one scenario draw × trial), whenever that group
//     happens to complete, is order-independent.
//   - Per-cell makespan sums are exact int64 totals. The old code summed
//     float64 values in canonical instance order; integer makespans sum
//     exactly in float64 until 2^53, so float64(sum) reproduces that
//     accumulation bit for bit (campaign caps are ~1e6 slots — fifty
//     orders of magnitude of headroom).
//   - The per-scenario relative differences are assembled at render time
//     in the same sorted scenario-key order the old walk used, so the
//     float reductions (mean, stdev) see identical operand sequences.
//
// Duplicate coordinates never reach an accumulator: journals deduplicate
// on Key at append time, and the run/merge paths generate each
// coordinate exactly once.

// coordKey is one coordinate group: a scenario draw and trial, across
// heuristics — the unit the relative metrics (wins, failure dominance)
// compare within.
type coordKey struct {
	scenarioKey
	trial int
}

// coordEntry is one heuristic's outcome inside an open coordinate group.
type coordEntry struct {
	makespan int64
	failed   bool
}

// aggCell is the per-(heuristic, scenario) accumulator cell.
type aggCell struct {
	sum    int64 // Σ makespan over succeeding trials (exact)
	n      int   // succeeding trials
	fails  int
	wins   int // trials with makespan ≤ ref's (resolved at group close)
	wins30 int // trials with makespan ≤ 1.3 · ref's
	trials int // trials where both this heuristic and ref recorded
}

// tableAccumulator aggregates instances incrementally for one reference
// heuristic. Groups close — and their relative counters resolve — as
// soon as every expected heuristic of a coordinate has arrived, so
// steady-state memory is O(cells) plus the handful of in-flight groups,
// not O(instances).
type tableAccumulator struct {
	ref string
	// expect is the number of heuristics per coordinate group (0 defers
	// every resolution to finish, for feeds of unknown width).
	expect int
	cells  map[string]map[scenarioKey]*aggCell
	open   map[coordKey]map[string]coordEntry
	// free recycles closed groups' maps: a well-ordered stream keeps only
	// a handful of groups in flight, so steady-state allocation — not
	// just live memory — stays O(cells) rather than O(instances).
	free      []map[string]coordEntry
	dominance int
	finished  bool
}

func newTableAccumulator(ref string, expect int) *tableAccumulator {
	return &tableAccumulator{
		ref:    ref,
		expect: expect,
		cells:  map[string]map[scenarioKey]*aggCell{},
		open:   map[coordKey]map[string]coordEntry{},
	}
}

// add feeds one instance, in any order.
func (a *tableAccumulator) add(inst InstanceResult) {
	key := scenarioKey{inst.Point.Ncom, inst.Point.Wmin, inst.Point.Scenario, modelName(inst)}
	byScen := a.cells[inst.Heuristic]
	if byScen == nil {
		byScen = map[scenarioKey]*aggCell{}
		a.cells[inst.Heuristic] = byScen
	}
	c := byScen[key]
	if c == nil {
		c = &aggCell{}
		byScen[key] = c
	}
	if inst.Failed {
		c.fails++
	} else {
		c.sum += inst.Makespan
		c.n++
	}
	ck := coordKey{key, inst.Trial}
	g := a.open[ck]
	if g == nil {
		if n := len(a.free); n > 0 {
			g = a.free[n-1]
			a.free = a.free[:n-1]
		} else {
			g = map[string]coordEntry{}
		}
		a.open[ck] = g
	}
	g[inst.Heuristic] = coordEntry{inst.Makespan, inst.Failed}
	if a.expect > 0 && len(g) == a.expect {
		a.closeGroup(ck, g)
		delete(a.open, ck)
		clear(g)
		a.free = append(a.free, g)
	}
}

// closeGroup resolves one coordinate group's relative counters. All
// counters are integers, so close order cannot perturb results. The
// comparisons run on capped makespans (failed instances record the cap),
// exactly as the paper's win percentages are defined.
func (a *tableAccumulator) closeGroup(ck coordKey, g map[string]coordEntry) {
	refE, refOK := g[a.ref]
	if !refOK {
		return // wins and dominance are relative to ref; nothing to resolve
	}
	refMk := float64(refE.makespan)
	for name, e := range g {
		c := a.cells[name][ck.scenarioKey]
		mk := float64(e.makespan)
		c.trials++
		if mk <= refMk {
			c.wins++
		}
		if mk <= 1.3*refMk {
			c.wins30++
		}
		if refE.failed && name != a.ref && !e.failed {
			a.dominance++
		}
	}
}

// finish resolves every still-open group (partial coverage: filtered
// feeds, interrupted shards). Idempotent.
func (a *tableAccumulator) finish() {
	if a.finished {
		return
	}
	a.finished = true
	for ck, g := range a.open {
		a.closeGroup(ck, g)
	}
	a.open = nil
	a.free = nil
}

// rows renders the accumulated cells into table rows, restricted to the
// scenario keys keep admits (all when nil). The scenario loop runs in
// sorted-key order so the float reductions are bit-identical however the
// instances arrived.
func (a *tableAccumulator) rows(keep func(scenarioKey) bool) ([]TableRow, error) {
	a.finish()
	refCells := a.cells[a.ref]
	refSeen := false
	for key := range refCells {
		if keep == nil || keep(key) {
			refSeen = true
			break
		}
	}
	if !refSeen {
		return nil, fmt.Errorf("exp: reference heuristic %q not in results", a.ref)
	}
	var rows []TableRow
	for name, byScen := range a.cells {
		keys := make([]scenarioKey, 0, len(byScen))
		for key := range byScen {
			if keep == nil || keep(key) {
				keys = append(keys, key)
			}
		}
		if len(keys) == 0 {
			continue
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			if a.Model != b.Model {
				return a.Model < b.Model
			}
			if a.Ncom != b.Ncom {
				return a.Ncom < b.Ncom
			}
			if a.Wmin != b.Wmin {
				return a.Wmin < b.Wmin
			}
			return a.Scenario < b.Scenario
		})
		row := TableRow{Heuristic: name}
		var diffs []float64
		wins, wins30, trials := 0, 0, 0
		for _, key := range keys {
			c := byScen[key]
			row.Fails += c.fails
			refC := refCells[key]
			if refC == nil {
				continue
			}
			wins += c.wins
			wins30 += c.wins30
			trials += c.trials
			// Per-scenario relative difference over succeeding trials.
			if c.n > 0 && refC.n > 0 {
				mH := float64(c.sum) / float64(c.n)
				mRef := float64(refC.sum) / float64(refC.n)
				den := mH
				if mRef < den {
					den = mRef
				}
				if den > 0 {
					diffs = append(diffs, (mH-mRef)/den)
				}
			}
		}
		if len(diffs) > 0 {
			row.Diff = 100 * stats.Mean(diffs)
			row.Stdv = stats.Stdev(diffs)
		}
		if trials > 0 {
			row.Wins = 100 * float64(wins) / float64(trials)
			row.Wins30 = 100 * float64(wins30) / float64(trials)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Diff != rows[j].Diff {
			return rows[i].Diff < rows[j].Diff
		}
		return rows[i].Heuristic < rows[j].Heuristic
	})
	return rows, nil
}

// models returns the distinct model names the accumulator has seen.
func (a *tableAccumulator) models() []string {
	seen := map[string]bool{}
	for _, byScen := range a.cells {
		for key := range byScen {
			seen[key.Model] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resultAgg is a Result's streaming aggregation state, shared by value
// copies of the Result (they point at the same state). It only exists on
// aggregation-only Results (journal replay, DiscardInstances runs):
// Instances is nil and only the preseeded reference heuristics can be
// rendered. Results that carry Instances aggregate per call, exactly as
// the slice-walking code they replaced did.
type resultAgg struct {
	mu    sync.Mutex
	byRef map[string]*tableAccumulator
}

// resultAggInit guards the lazy creation of a Result's agg pointer, so
// concurrent table renders of one Result (the daemon's artifact
// handlers) stay race-free.
var resultAggInit sync.Mutex

func (r *Result) aggState() *resultAgg {
	resultAggInit.Lock()
	defer resultAggInit.Unlock()
	if r.agg == nil {
		r.agg = &resultAgg{byRef: map[string]*tableAccumulator{}}
	}
	return r.agg
}

// preseedAgg installs a streaming accumulator built outside the Result
// (journal replay, a DiscardInstances run), marking the Result
// aggregation-only.
func (r *Result) preseedAgg(ref string, acc *tableAccumulator) {
	st := r.aggState()
	st.mu.Lock()
	acc.finish()
	st.byRef[ref] = acc
	st.mu.Unlock()
}

// aggFor returns an accumulator for ref: the preseeded streaming one on
// aggregation-only Results, or a fresh walk over Instances otherwise.
func (r *Result) aggFor(ref string) (*tableAccumulator, error) {
	if st := r.agg; st != nil {
		st.mu.Lock()
		defer st.mu.Unlock()
		if acc := st.byRef[ref]; acc != nil {
			return acc, nil
		}
		refs := make([]string, 0, len(st.byRef))
		for name := range st.byRef {
			refs = append(refs, name)
		}
		sort.Strings(refs)
		return nil, fmt.Errorf("exp: aggregation-only result was streamed for reference %v, cannot aggregate for %q", refs, ref)
	}
	acc := newTableAccumulator(ref, 0)
	for _, inst := range r.Instances {
		acc.add(inst)
	}
	acc.finish()
	return acc, nil
}

// AggregateJournal replays a sweep journal (either format) into an
// aggregation-only Result: sweep dimensions from the header, nil
// Instances, and a streaming accumulator for ReferenceHeuristic in their
// place. Tables I–III, Figure 2 and the failure-dominance check render
// from it in O(cells) memory however many instances the journal holds.
func AggregateJournal(path string) (*Result, error) {
	var sweep Sweep
	var acc *tableAccumulator
	err := scanDistinct(sweepKind, path,
		func(_ Format, h journalHeader[SweepSpec]) error {
			sweep = h.Spec.sweepDims()
			acc = newTableAccumulator(ReferenceHeuristic, len(h.Spec.Heuristics))
			return nil
		},
		func(inst InstanceResult) error {
			acc.add(inst)
			return nil
		})
	if err != nil {
		return nil, err
	}
	r := &Result{Sweep: sweep}
	r.preseedAgg(ReferenceHeuristic, acc)
	return r, nil
}

// ---- Table IV --------------------------------------------------------------

// gridCombo is one policy combination — Table IV's row key.
type gridCombo struct {
	arrival, admission, preemption string
}

// tableIVAccumulator groups grid instances by policy combination. Grid
// instances are already per-trial aggregates (a campaign has
// |combos| × trials of them), so buffering them per combo is small by
// construction; rows render by replaying each combo's trials in sorted
// order, reproducing the canonical-order float accumulation exactly.
type tableIVAccumulator struct {
	combos map[gridCombo][]GridInstance
}

func newTableIVAccumulator() *tableIVAccumulator {
	return &tableIVAccumulator{combos: map[gridCombo][]GridInstance{}}
}

// add feeds one grid instance, in any order.
func (a *tableIVAccumulator) add(in GridInstance) {
	k := gridCombo{in.Arrival, in.Admission, in.Preemption}
	a.combos[k] = append(a.combos[k], in)
}

// rows renders Table IV in canonical combo order.
func (a *tableIVAccumulator) rows() []TableIVRow {
	keys := make([]gridCombo, 0, len(a.combos))
	for k := range a.combos {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		x, y := keys[i], keys[j]
		if x.arrival != y.arrival {
			return x.arrival < y.arrival
		}
		if x.admission != y.admission {
			return x.admission < y.admission
		}
		return x.preemption < y.preemption
	})
	var rows []TableIVRow
	for _, k := range keys {
		insts := a.combos[k]
		sort.Slice(insts, func(i, j int) bool { return insts[i].Trial < insts[j].Trial })
		row := TableIVRow{Arrival: k.arrival, Admission: k.admission, Preemption: k.preemption}
		var respSum int64
		slowSum := 0.0
		var makespanSum int64
		for _, in := range insts {
			row.Apps += in.Apps
			row.Completed += in.Completed
			row.Missed += in.Missed
			row.Preempted += in.Preempted
			respSum += in.RespSum
			slowSum += in.SlowSum
			makespanSum += in.Makespan
		}
		finishTableIVRow(&row, respSum, slowSum, makespanSum, len(insts))
		rows = append(rows, row)
	}
	return rows
}

// AggregateGridJournal replays a grid journal (either format) into an
// aggregation-only Result whose Grid renders Table IV without holding a
// sorted instance slice.
func AggregateGridJournal(path string) (*Result, error) {
	res := &GridResult{agg: newTableIVAccumulator()}
	err := scanDistinct(gridKind, path,
		func(_ Format, h journalHeader[GridSpec]) error {
			res.Sweep = h.Spec.Sweep()
			return nil
		},
		func(inst GridInstance) error {
			res.agg.add(inst)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return &Result{Grid: res}, nil
}

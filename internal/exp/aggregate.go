package exp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"tightsched/internal/stats"
)

// This file holds the incremental table accumulators behind Tables I–IV:
// instances stream in one at a time (journal replay, DiscardInstances
// runs, or a walk over Result.Instances) and tables render from O(cells)
// state — cells being (heuristic × scenario) for the offline tables and
// (policy combination) for Table IV — so that journal replays and
// DiscardInstances runs never hold the instances.
//
// The offline tables' accumulator indexes everything by integer id.
// When the feed knows its campaign (a journal header, a live sweep), a
// record's heuristic, scenario draw and coordinate ids are its place on
// the campaign grid: the heuristic's index in the spec, the draw's index
// in Sweep.Coords order, and the coordinate's index among the feed's
// shard's coordinates. A journal replay reads all three off the grid
// position its duplicate skip already computed (scanDistinct), so an
// on-grid record hashes nothing. Anything off the grid — an unknown
// model, point, trial or heuristic, a coordinate outside the shard, or
// every key of a feed without a campaign — gets ids past the grid from
// one small map. Accumulation and rendering run one code path over ids.
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
// A feed holds each key at most once: journal readers keep a key's
// first record (scanDistinct), and the run and merge paths generate each
// coordinate exactly once.

// coordKey is one coordinate group: a scenario draw and trial, across
// heuristics — the unit the relative metrics (wins, failure dominance)
// compare within.
type coordKey struct {
	scenarioKey
	trial int
}

// coordEntry is one heuristic's outcome at a coordinate; set marks an
// entry that holds one.
type coordEntry struct {
	makespan int64
	failed   bool
	set      bool
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

// openGroup is a coordinate group waiting for heuristics.
type openGroup struct {
	scen    int          // the group's scenario id; -1 while the group is free
	got     int          // distinct on-grid heuristics arrived
	entries []coordEntry // by heuristic id
}

// coordPage holds the state of pageLen consecutive coordinates, 4 bytes
// and two bits each. Until a coordinate's group closes, val is 1 + the
// index in groups of its open group (0 while none is open); once it has
// closed, val is the reference's makespan there (wideMakespan when it
// does not fit: the accumulator's wide map holds it) and its failed bit
// whether the reference failed.
type coordPage struct {
	val            [pageLen]int32
	closed, failed [pageLen / 64]uint64
}

// wideMakespan marks a closed coordinate whose reference makespan does
// not fit a coordPage's val.
const wideMakespan = math.MinInt32

// offKey is what an id past the grid stands for: a heuristic (name), a
// scenario draw (coord, trial 0) or a coordinate (coord).
type offKey struct {
	kind  offKind
	name  string
	coord coordKey
}

type offKind uint8

const (
	offHeuristic offKind = iota
	offScenario
	offCoord
)

// keyedScenario is a scenario id with its key.
type keyedScenario struct {
	id  int
	key scenarioKey
}

// tableAccumulator aggregates instances incrementally for one reference
// heuristic. On a feed with a campaign, a coordinate's group closes as
// soon as every heuristic of the campaign has arrived there, so
// steady-state memory is O(cells) plus the handful of in-flight groups
// and 4 bytes per coordinate, rather than a record per instance: a
// closed coordinate keeps the reference's outcome, against which a
// heuristic off the grid arriving later still resolves. Relative
// counters (wins, dominance) resolve only against a reference among the
// campaign's heuristics; a feed without a campaign keeps every group
// open until finish and resolves against the reference wherever it
// arrived.
type tableAccumulator struct {
	ref   string
	refID int // ref's heuristic id; -1 while unknown

	// The campaign grid; spec is nil and the counts zero when the feed
	// has none.
	spec   *SweepSpec
	shard  Shard // the shard the feed's grid positions are over
	nh     int   // heuristic ids [0, nh) are the spec's heuristics
	nscen  int   // scenario ids [0, nscen) are the campaign's draws
	ncoord int   // coordinate ids [0, ncoord) are the shard's coordinates

	names    []string      // heuristic id → name
	offScens []scenarioKey // scenario id − nscen → key
	nOff     int           // coordinate ids handed out past the grid
	other    map[offKey]int

	cells  pageTable[[pageLen][]aggCell] // scenario id → cells by heuristic id
	coords pageTable[coordPage]          // coordinate id → state
	wide   map[int]int64                 // coordinate id → reference makespan past int32
	groups []openGroup
	free   []int // indexes of free groups

	order     []keyedScenario // after finish: scenario ids holding cells, in key order
	dominance int
	finished  bool
}

// newTableAccumulator returns an empty accumulator for reference ref
// over a feed of campaign spec (nil when the feed has none) whose grid
// positions, where it supplies them, are sweepGrid's over shard.
func newTableAccumulator(ref string, spec *SweepSpec, shard Shard) *tableAccumulator {
	a := &tableAccumulator{ref: ref, refID: -1, other: map[offKey]int{}}
	if spec == nil || spec.coordCount() == 0 || len(spec.Heuristics) == 0 || shard.Validate() != nil {
		return a
	}
	coords := spec.coordCount()
	a.spec, a.shard = spec, shard.normalize()
	a.nh, a.nscen, a.ncoord = len(spec.Heuristics), coords/spec.Trials, a.shard.owned(coords)
	a.names = slices.Clone(spec.Heuristics)
	a.refID = slices.Index(a.names, ref)
	return a
}

// add feeds one instance, in any order. p is the instance's position on
// the grid of the feed's campaign and shard (sweepGrid), or -1 when it
// is off the grid or unknown.
func (a *tableAccumulator) add(inst InstanceResult, p int) {
	e := coordEntry{inst.Makespan, inst.Failed, true}
	if p >= 0 {
		c := p / a.nh
		a.put(c, p-c*a.nh, -1, e)
		return
	}
	h, s, c := a.locate(inst)
	a.put(c, h, s, e)
}

// put records heuristic h's outcome e at coordinate c of scenario s (-1
// for a coordinate on the grid: put derives it when needed). Cells take
// a group's outcomes when it closes.
func (a *tableAccumulator) put(c, h, s int, e coordEntry) {
	pg, i := a.coords.at(c)
	w, bit := i/64, uint64(1)<<(i%64)
	if pg.closed[w]&bit != 0 {
		// Only a heuristic off the grid arrives after its group closed.
		if s < 0 {
			s = a.scenarioOf(c)
		}
		ref := coordEntry{int64(pg.val[i]), pg.failed[w]&bit != 0, true}
		if pg.val[i] == wideMakespan {
			ref.makespan = a.wide[c]
		}
		cell := a.cell(h, s)
		cell.tally(e)
		a.resolve(cell, h, e, ref)
		return
	}
	if pg.val[i] == 0 {
		if s < 0 {
			s = a.scenarioOf(c)
		}
		pg.val[i] = int32(a.open(s))
	}
	gi := int(pg.val[i] - 1)
	g := &a.groups[gi]
	if h >= len(g.entries) {
		g.entries = append(g.entries, make([]coordEntry, len(a.names)-len(g.entries))...)
	}
	if old := g.entries[h]; old.set {
		a.cell(h, g.scen).tally(old) // a feed repeating a key: the last outcome is compared
	} else if h < a.nh {
		g.got++
	}
	g.entries[h] = e
	if a.nh > 0 && g.got == a.nh {
		pg.val[i] = 0
		if a.refID >= 0 && a.refID < a.nh {
			ref := g.entries[a.refID]
			if pg.val[i] = int32(ref.makespan); int64(pg.val[i]) != ref.makespan || pg.val[i] == wideMakespan {
				pg.val[i] = wideMakespan
				if a.wide == nil {
					a.wide = map[int]int64{}
				}
				a.wide[c] = ref.makespan
			}
			pg.closed[w] |= bit
			if ref.failed {
				pg.failed[w] |= bit
			}
		}
		a.close(g)
		a.release(gi)
	}
}

// scenarioOf returns the scenario id of coordinate c on the grid.
func (a *tableAccumulator) scenarioOf(c int) int {
	return (c*a.shard.Count + a.shard.Index) / a.spec.Trials
}

// locate returns the heuristic, scenario and coordinate ids of an
// instance given without its grid position.
func (a *tableAccumulator) locate(inst InstanceResult) (h, s, c int) {
	h = slices.Index(a.names[:a.nh], inst.Heuristic)
	if h < 0 {
		h = a.offID(offKey{kind: offHeuristic, name: inst.Heuristic})
	}
	key := scenarioKey{inst.Point.Ncom, inst.Point.Wmin, inst.Point.Scenario, modelName(inst)}
	s = -1
	if a.spec != nil {
		s = a.spec.scenarioIndex(key.Model, key.Ncom, key.Wmin, key.Scenario)
	}
	if s < 0 {
		s = a.offID(offKey{kind: offScenario, coord: coordKey{scenarioKey: key}})
	}
	if s < a.nscen && inst.Trial >= 0 && inst.Trial < a.spec.Trials {
		if g := s*a.spec.Trials + inst.Trial; a.shard.Covers(g) {
			return h, s, g / a.shard.Count
		}
	}
	return h, s, a.offID(offKey{kind: offCoord, coord: coordKey{key, inst.Trial}})
}

// offID returns the id past the grid of k, handing out the next one on
// first sight.
func (a *tableAccumulator) offID(k offKey) int {
	if id, ok := a.other[k]; ok {
		return id
	}
	var id int
	switch k.kind {
	case offHeuristic:
		id = len(a.names)
		a.names = append(a.names, k.name)
		if k.name == a.ref {
			a.refID = id
		}
	case offScenario:
		id = a.nscen + len(a.offScens)
		a.offScens = append(a.offScens, k.coord.scenarioKey)
	default:
		id = a.ncoord + a.nOff
		a.nOff++
	}
	a.other[k] = id
	return id
}

// cell returns heuristic h's cell for scenario s, creating it.
func (a *tableAccumulator) cell(h, s int) *aggCell {
	return &a.row(s, h+1)[h]
}

// row returns scenario s's cells, creating at least n of them.
func (a *tableAccumulator) row(s, n int) []aggCell {
	pg, i := a.cells.at(s)
	if row := &pg[i]; len(*row) < n {
		*row = append(*row, make([]aggCell, len(a.names)-len(*row))...)
	}
	return pg[i]
}

// peekCell returns heuristic h's cell for scenario s, or nil when no
// instance of the pair arrived.
func (a *tableAccumulator) peekCell(h, s int) *aggCell {
	pg, i := a.cells.peek(s)
	if pg == nil || h < 0 || h >= len(pg[i]) {
		return nil
	}
	if c := &pg[i][h]; c.n+c.fails > 0 {
		return c
	}
	return nil
}

// open returns 1 + the index of a free group, now open for scenario s.
func (a *tableAccumulator) open(s int) int {
	var i int
	if n := len(a.free); n > 0 {
		i, a.free = a.free[n-1], a.free[:n-1]
	} else {
		i = len(a.groups)
		a.groups = append(a.groups, openGroup{})
	}
	a.groups[i].scen = s
	return i + 1
}

// release returns group i to the free list: a well-ordered stream keeps
// only a handful of groups in flight, so steady-state allocation — not
// just live memory — stays O(cells) rather than O(instances).
func (a *tableAccumulator) release(i int) {
	g := &a.groups[i]
	clear(g.entries)
	g.scen, g.got = -1, 0
	a.free = append(a.free, i)
}

// close moves a group's outcomes into its scenario's cells and
// resolves its relative counters against its reference entry. All
// counters are integers, so close order cannot perturb results.
func (a *tableAccumulator) close(g *openGroup) {
	row := a.row(g.scen, len(g.entries))
	// Wins and dominance are relative to ref, and need it on the grid of
	// a feed that has one.
	ref := a.refID
	compare := ref >= 0 && (a.nh == 0 || ref < a.nh) && ref < len(g.entries) && g.entries[ref].set
	for h, e := range g.entries {
		if !e.set {
			continue
		}
		cell := &row[h]
		cell.tally(e)
		if compare {
			a.resolve(cell, h, e, g.entries[ref])
		}
	}
}

// tally counts one outcome into the cell.
func (c *aggCell) tally(e coordEntry) {
	if e.failed {
		c.fails++
	} else {
		c.sum += e.makespan
		c.n++
	}
}

// resolve counts heuristic h's outcome e, whose cell is c, against the
// reference's outcome at the same coordinate. The comparisons run on
// capped makespans (failed instances record the cap), exactly as the
// paper's win percentages are defined.
func (a *tableAccumulator) resolve(c *aggCell, h int, e, ref coordEntry) {
	mk, refMk := float64(e.makespan), float64(ref.makespan)
	c.trials++
	if mk <= refMk {
		c.wins++
	}
	if mk <= 1.3*refMk {
		c.wins30++
	}
	if ref.failed && h != a.refID && !e.failed {
		a.dominance++
	}
}

// finish resolves every still-open group (partial coverage: filtered
// feeds, interrupted shards), drops the per-coordinate state and lists
// the scenarios in key order. Idempotent.
func (a *tableAccumulator) finish() {
	if a.finished {
		return
	}
	a.finished = true
	for i := range a.groups {
		if g := &a.groups[i]; g.scen >= 0 {
			a.close(g)
		}
	}
	a.groups, a.free, a.coords, a.wide, a.other = nil, nil, pageTable[coordPage]{}, nil, nil
	for pg, page := range a.cells.pages {
		if page == nil {
			continue
		}
		for i, row := range page {
			if len(row) > 0 {
				s := pg*pageLen + i
				a.order = append(a.order, keyedScenario{s, a.scenario(s)})
			}
		}
	}
	slices.SortFunc(a.order, func(x, y keyedScenario) int {
		a, b := x.key, y.key
		return cmp.Or(strings.Compare(a.Model, b.Model), cmp.Compare(a.Ncom, b.Ncom),
			cmp.Compare(a.Wmin, b.Wmin), cmp.Compare(a.Scenario, b.Scenario))
	})
}

// scenario returns the key of scenario id s.
func (a *tableAccumulator) scenario(s int) scenarioKey {
	if s < a.nscen {
		return a.spec.scenarioAt(s)
	}
	return a.offScens[s-a.nscen]
}

// rows renders the accumulated cells into table rows, restricted to the
// scenario keys keep admits (all when nil). The scenario loop runs in
// sorted-key order so the float reductions are bit-identical however the
// instances arrived.
func (a *tableAccumulator) rows(keep func(scenarioKey) bool) ([]TableRow, error) {
	a.finish()
	scens := make([]int, 0, len(a.order))
	refSeen := false
	for _, ks := range a.order {
		if keep == nil || keep(ks.key) {
			scens = append(scens, ks.id)
			refSeen = refSeen || a.peekCell(a.refID, ks.id) != nil
		}
	}
	if !refSeen {
		return nil, fmt.Errorf("exp: reference heuristic %q not in results", a.ref)
	}
	var rows []TableRow
	for h, name := range a.names {
		row := TableRow{Heuristic: name}
		var diffs []float64
		seen := false
		wins, wins30, trials := 0, 0, 0
		for _, s := range scens {
			c := a.peekCell(h, s)
			if c == nil {
				continue
			}
			seen = true
			row.Fails += c.fails
			refC := a.peekCell(a.refID, s)
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
		if !seen {
			continue
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
	a.finish()
	names := []string{}
	for _, ks := range a.order {
		if n := len(names); n == 0 || names[n-1] != ks.key.Model {
			names = append(names, ks.key.Model)
		}
	}
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
	acc := newTableAccumulator(ref, nil, Shard{})
	for _, inst := range r.Instances {
		acc.add(inst, -1)
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
			acc = newTableAccumulator(ReferenceHeuristic, &h.Spec, h.Shard)
			return nil
		},
		func(inst InstanceResult, p int) error {
			acc.add(inst, p)
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

// AggregateGridJournal replays a grid journal (either format) into a
// Result whose Grid holds the journal's distinct instances in canonical
// order, from which Table IV renders.
func AggregateGridJournal(path string) (*Result, error) {
	res := &GridResult{}
	err := scanDistinct(gridKind, path,
		func(_ Format, h journalHeader[GridSpec]) error {
			res.Sweep = h.Spec.Sweep()
			return nil
		},
		func(inst GridInstance, _ int) error {
			res.Instances = append(res.Instances, inst)
			return nil
		})
	if err != nil {
		return nil, err
	}
	sortGridInstances(res.Instances)
	return &Result{Grid: res}, nil
}

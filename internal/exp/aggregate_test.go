package exp

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"tightsched/internal/avail"
	"tightsched/internal/stats"
)

// refTable computes the rows of a table over insts (distinct keys) by
// definition, restricted to the scenario keys keep admits (all when
// nil): instances sorted canonically, per-scenario means over succeeding
// trials, and wins over the coordinates where both a heuristic and ref
// recorded. compare is false when wins resolve against nothing: a feed
// whose campaign does not list ref.
func refTable(insts []InstanceResult, ref string, keep func(scenarioKey) bool, compare bool) ([]TableRow, error) {
	sorted := slices.Clone(insts)
	for i := range sorted {
		sorted[i].Model = modelName(sorted[i])
	}
	sortInstances(sorted)
	type acc struct {
		sum   float64
		n     int
		fails int
	}
	type heur struct {
		scens              []scenarioKey // in canonical order
		cells              map[scenarioKey]*acc
		wins, wins30, tris int
	}
	byHeur := map[string]*heur{}
	refAt := map[coordKey]InstanceResult{}
	for _, in := range sorted {
		key := scenarioKey{in.Point.Ncom, in.Point.Wmin, in.Point.Scenario, modelName(in)}
		if keep != nil && !keep(key) {
			continue
		}
		h := byHeur[in.Heuristic]
		if h == nil {
			h = &heur{cells: map[scenarioKey]*acc{}}
			byHeur[in.Heuristic] = h
		}
		c := h.cells[key]
		if c == nil {
			c = &acc{}
			h.cells[key] = c
			h.scens = append(h.scens, key)
		}
		if in.Failed {
			c.fails++
		} else {
			c.sum += float64(in.Makespan)
			c.n++
		}
		if in.Heuristic == ref {
			refAt[coordKey{key, in.Trial}] = in
		}
	}
	refH := byHeur[ref]
	if refH == nil {
		return nil, fmt.Errorf("no reference")
	}
	if compare {
		for _, in := range sorted {
			key := scenarioKey{in.Point.Ncom, in.Point.Wmin, in.Point.Scenario, modelName(in)}
			r, ok := refAt[coordKey{key, in.Trial}]
			if !ok || (keep != nil && !keep(key)) {
				continue
			}
			h := byHeur[in.Heuristic]
			h.tris++
			if float64(in.Makespan) <= float64(r.Makespan) {
				h.wins++
			}
			if float64(in.Makespan) <= 1.3*float64(r.Makespan) {
				h.wins30++
			}
		}
	}
	var rows []TableRow
	for name, h := range byHeur {
		row := TableRow{Heuristic: name}
		var diffs []float64
		for _, key := range h.scens {
			c := h.cells[key]
			row.Fails += c.fails
			rc := refH.cells[key]
			if rc == nil || c.n == 0 || rc.n == 0 {
				continue
			}
			mH, mRef := c.sum/float64(c.n), rc.sum/float64(rc.n)
			if den := min(mH, mRef); den > 0 {
				diffs = append(diffs, (mH-mRef)/den)
			}
		}
		if len(diffs) > 0 {
			row.Diff = 100 * stats.Mean(diffs)
			row.Stdv = stats.Stdev(diffs)
		}
		if h.tris > 0 {
			row.Wins = 100 * float64(h.wins) / float64(h.tris)
			row.Wins30 = 100 * float64(h.wins30) / float64(h.tris)
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

// refDominance counts, by definition, the instances of other heuristics
// that succeed where ref failed at the same coordinate.
func refDominance(insts []InstanceResult, ref string, compare bool) int {
	if !compare {
		return 0
	}
	failed := map[coordKey]bool{}
	for _, in := range insts {
		if in.Heuristic == ref && in.Failed {
			failed[coordKey{scenarioKey{in.Point.Ncom, in.Point.Wmin, in.Point.Scenario, modelName(in)}, in.Trial}] = true
		}
	}
	n := 0
	for _, in := range insts {
		if in.Heuristic != ref && !in.Failed &&
			failed[coordKey{scenarioKey{in.Point.Ncom, in.Point.Wmin, in.Point.Scenario, modelName(in)}, in.Trial}] {
			n++
		}
	}
	return n
}

// tableViews is everything the offline tables render from one result:
// Table I, Table III, the Figure 2 slicing and the dominance count.
type tableViews struct {
	Table     []TableRow
	TableErr  bool
	ByModel   map[string][]TableRow
	ByWmin    map[int][]TableRow
	Models    []string
	Dominance int
}

// viewsOf renders a result's table views, one TableForWmin per wmin.
func viewsOf(r *Result, wmins []int) tableViews {
	v := tableViews{ByModel: map[string][]TableRow{}, ByWmin: map[int][]TableRow{}}
	var err error
	v.Table, err = r.Table(ReferenceHeuristic)
	v.TableErr = err != nil
	v.Models = r.Models()
	if tables, err := r.TableIII(ReferenceHeuristic); err == nil {
		for _, mt := range tables {
			v.ByModel[mt.Model] = mt.Rows
		}
	}
	for _, w := range wmins {
		if rows, err := r.TableForWmin(ReferenceHeuristic, w); err == nil {
			v.ByWmin[w] = rows
		}
	}
	v.Dominance = r.RefFailureDominance(ReferenceHeuristic)
	return v
}

// refViews computes the same views by definition.
func refViews(insts []InstanceResult, wmins []int, compare bool) tableViews {
	v := tableViews{ByModel: map[string][]TableRow{}, ByWmin: map[int][]TableRow{}, Models: []string{}}
	var err error
	v.Table, err = refTable(insts, ReferenceHeuristic, nil, compare)
	v.TableErr = err != nil
	for _, in := range insts {
		v.Models = append(v.Models, modelName(in))
	}
	slices.Sort(v.Models)
	v.Models = slices.Compact(v.Models)
	tableIIIErr := false
	for _, m := range v.Models {
		rows, err := refTable(insts, ReferenceHeuristic, func(k scenarioKey) bool { return k.Model == m }, compare)
		if err != nil {
			tableIIIErr = true
			break
		}
		v.ByModel[m] = rows
	}
	if tableIIIErr {
		v.ByModel = map[string][]TableRow{}
	}
	for _, w := range wmins {
		if rows, err := refTable(insts, ReferenceHeuristic, func(k scenarioKey) bool { return k.Wmin == w }, compare); err == nil {
			v.ByWmin[w] = rows
		}
	}
	v.Dominance = refDominance(insts, ReferenceHeuristic, compare)
	return v
}

// accCase is one differential case: a campaign, the shard its feed
// covers, and the instances the feed holds.
type accCase struct {
	name  string
	spec  SweepSpec
	shard Shard
	insts []InstanceResult
}

// accSpec is a small multi-model campaign.
func accSpec(heuristics ...string) SweepSpec {
	return SweepSpec{M: 3, Ncoms: []int{10, 5}, Wmins: []int{2, 1, 3}, Scenarios: 2, Trials: 3,
		P: 8, Iterations: 2, Cap: 1000, Seed: 7, Heuristics: heuristics,
		Models: []string{"semimarkov", "markov"}}
}

// genInstances draws one instance per coordinate the shard covers and
// heuristic, skipping about one in skip (none when skip is 0), with tied
// makespans and failures at the cap common.
func genInstances(r *rand.Rand, sp SweepSpec, sh Shard, heuristics []string, skip int) []InstanceResult {
	var out []InstanceResult
	c := 0
	for _, m := range sp.Models {
		for _, n := range sp.Ncoms {
			for _, w := range sp.Wmins {
				for sc := 0; sc < sp.Scenarios; sc++ {
					for tr := 0; tr < sp.Trials; tr++ {
						covered := sh.Covers(c)
						c++
						if !covered {
							continue
						}
						for _, h := range heuristics {
							if skip > 0 && r.IntN(skip) == 0 {
								continue
							}
							out = append(out, genInstance(r, sp.Cap, m, Point{n, w, sc}, tr, h))
						}
					}
				}
			}
		}
	}
	return out
}

func genInstance(r *rand.Rand, cap int64, model string, pt Point, trial int, h string) InstanceResult {
	in := InstanceResult{Point: pt, Trial: trial, Model: model, Heuristic: h, Makespan: 100 + r.Int64N(40)}
	if r.IntN(8) == 0 {
		in.Makespan, in.Failed = cap, true
	}
	return in
}

// offGrid returns instances of the case's heuristics (and IAY, which no
// case's campaign lists) off the campaign's grid: an unknown model,
// ncom, scenario or trial, and coordinates outside the shard.
func offGrid(r *rand.Rand, sp SweepSpec, heuristics []string) []InstanceResult {
	var out []InstanceResult
	for _, h := range append(slices.Clone(heuristics), "IAY") {
		out = append(out,
			genInstance(r, sp.Cap, "lognormal", Point{10, 2, 0}, 0, h),
			genInstance(r, sp.Cap, "", Point{99, 2, 1}, 1, h),
			genInstance(r, sp.Cap, "markov", Point{5, 1, sp.Scenarios}, 0, h),
			genInstance(r, sp.Cap, "semimarkov", Point{5, 3, 1}, sp.Trials, h),
			genInstance(r, sp.Cap, "markov", Point{10, 1, 0}, 1, h),
			genInstance(r, sp.Cap, "markov", Point{10, 1, 1}, 2, h))
	}
	// IAY is also off the grid at on-grid coordinates.
	for tr := 0; tr < sp.Trials; tr++ {
		out = append(out, genInstance(r, sp.Cap, "semimarkov", Point{10, 2, 0}, tr, "IAY"))
	}
	return distinct(out)
}

// distinct keeps each key's first instance.
func distinct(insts []InstanceResult) []InstanceResult {
	seen := map[Key]bool{}
	var out []InstanceResult
	for _, in := range insts {
		if !seen[in.Key()] {
			seen[in.Key()] = true
			out = append(out, in)
		}
	}
	return out
}

func accCases() []accCase {
	r := rand.New(rand.NewPCG(20130522, 1))
	all := []string{"IE", "Y-IE", "RANDOM"}
	var cases []accCase
	for _, sh := range []Shard{{0, 1}, {1, 3}, {2, 3}} {
		sp := accSpec(all...)
		cases = append(cases,
			accCase{fmt.Sprintf("complete-%s", sh), sp, sh, genInstances(r, sp, sh, all, 0)},
			accCase{fmt.Sprintf("partial-%s", sh), sp, sh, genInstances(r, sp, sh, all, 4)},
			accCase{fmt.Sprintf("offgrid-%s", sh), sp, sh,
				distinct(append(genInstances(r, sp, sh, all, 6), offGrid(r, sp, all)...))})
	}
	// The campaign does not list the reference: its records are off the
	// grid and nothing resolves against them.
	sp := accSpec("Y-IE", "RANDOM")
	cases = append(cases, accCase{"ref-off-grid", sp, Shard{}, distinct(append(
		genInstances(r, sp, Shard{}, []string{"Y-IE", "RANDOM"}, 0),
		genInstances(r, sp, Shard{}, []string{"IE"}, 3)...))})
	// No reference at all.
	cases = append(cases, accCase{"no-ref", sp, Shard{1, 3}, genInstances(r, sp, Shard{1, 3}, []string{"Y-IE", "RANDOM"}, 5)})
	// The reference missing at some coordinates.
	sp = accSpec(all...)
	insts := genInstances(r, sp, Shard{}, all, 0)
	insts = slices.DeleteFunc(insts, func(in InstanceResult) bool { return in.Heuristic == "IE" && in.Trial == 1 })
	cases = append(cases, accCase{"ref-missing", sp, Shard{}, insts})
	// Makespans past int32 (and int32's minimum), with a heuristic off
	// the grid that may arrive after its coordinate closed.
	wide := distinct(append(genInstances(r, sp, Shard{}, all, 0), offGrid(r, sp, all)...))
	for i := range wide {
		switch i % 3 {
		case 0:
			wide[i].Makespan += math.MaxInt32
		case 1:
			wide[i].Makespan = math.MinInt32 + int64(i%2)
		}
	}
	cases = append(cases, accCase{"wide-makespans", sp, Shard{}, wide})
	return cases
}

// wminsOf lists the spec's wmins plus every wmin the instances hold.
func wminsOf(sp SweepSpec, insts []InstanceResult) []int {
	ws := slices.Clone(sp.Wmins)
	for _, in := range insts {
		ws = append(ws, in.Point.Wmin)
	}
	slices.Sort(ws)
	return slices.Compact(ws)
}

// feedAcc feeds insts in the given order into an accumulator over spec
// (none when nil) and shard; with positions set it hands each instance
// its grid position, as a journal replay does.
func feedAcc(spec *SweepSpec, shard Shard, insts []InstanceResult, positions bool) *Result {
	acc := newTableAccumulator(ReferenceHeuristic, spec, shard)
	var pos func(Key) int
	if positions {
		pos, _ = sweepGrid(*spec, shard.normalize())
	}
	for _, in := range insts {
		p := -1
		if pos != nil {
			p = pos(in.Key())
		}
		acc.add(in, p)
	}
	r := &Result{}
	r.preseedAgg(ReferenceHeuristic, acc)
	return r
}

// TestTableAccumulatorMatchesSliceWalk: every feed of the accumulator —
// grid positions (journal replay), no positions (DiscardInstances runs),
// no campaign (a walk over Result.Instances) and journal files of both
// formats holding repeated keys — renders Table I, Table III, the
// per-wmin tables behind Figure 2 and the dominance count exactly as a
// definition over the canonically sorted instances does, in any feed
// order.
func TestTableAccumulatorMatchesSliceWalk(t *testing.T) {
	for _, tc := range accCases() {
		t.Run(tc.name, func(t *testing.T) {
			wmins := wminsOf(tc.spec, tc.insts)
			onGrid := slices.Contains(tc.spec.Heuristics, ReferenceHeuristic)
			want := refViews(tc.insts, wmins, onGrid)
			wantNoSpec := refViews(tc.insts, wmins, true)
			if want.TableErr && len(tc.insts) > 0 && tc.name != "no-ref" {
				t.Fatalf("reference cannot render case %s", tc.name)
			}
			check := func(feed string, got, want tableViews) {
				t.Helper()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s:\n got %+v\nwant %+v", feed, got, want)
				}
			}
			r := rand.New(rand.NewPCG(uint64(len(tc.insts)), 2))
			for order := 0; order < 3; order++ {
				insts := slices.Clone(tc.insts)
				if order > 0 {
					r.Shuffle(len(insts), func(i, j int) { insts[i], insts[j] = insts[j], insts[i] })
				}
				check("positions", viewsOf(feedAcc(&tc.spec, tc.shard, insts, true), wmins), want)
				check("no positions", viewsOf(feedAcc(&tc.spec, tc.shard, insts, false), wmins), want)
				check("no campaign", viewsOf(feedAcc(nil, Shard{}, insts, false), wmins), wantNoSpec)
				check("instances", viewsOf(&Result{Instances: insts}, wmins), wantNoSpec)
			}
			// Journal files of both formats, in a shuffled order, each key
			// followed by a conflicting record a hand-edited file might
			// hold: readers keep the first.
			insts := slices.Clone(tc.insts)
			r.Shuffle(len(insts), func(i, j int) { insts[i], insts[j] = insts[j], insts[i] })
			for _, format := range []Format{FormatJSONL, FormatBinary} {
				path := filepath.Join(t.TempDir(), "acc."+format.String())
				j, err := createJournal(sweepKind, path, format, tc.spec, tc.shard)
				if err != nil {
					t.Fatal(err)
				}
				for i, in := range insts {
					appendRaw(t, j, in)
					if i%3 == 0 {
						dup := in
						dup.Makespan, dup.Failed = 1, false
						appendRaw(t, j, dup)
					}
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				res, err := AggregateJournal(path)
				if err != nil {
					t.Fatal(err)
				}
				check("journal "+format.String(), viewsOf(res, wmins), want)
			}
		})
	}
}

// appendRaw writes a record to the journal file without the journal's
// duplicate check, as a hand-edited or concatenated file holds it.
func appendRaw(t *testing.T, j *Journal, in InstanceResult) {
	t.Helper()
	b, err := j.kind.encode(nil, j.format, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.w.Append(b); err != nil {
		t.Fatal(err)
	}
}

// TestTableAccumulatorOffGridHeuristicOrder: a journal holding a
// heuristic its header does not list (here IAY, among Y-IE, RANDOM and
// IE) aggregates identically in every record order. A coordinate's group
// closes only once every listed heuristic has arrived, and IAY resolves
// against the coordinate's IE record whether it comes before or after.
func TestTableAccumulatorOffGridHeuristicOrder(t *testing.T) {
	s := tinySweep([]string{"Y-IE", "RANDOM", "IE"})
	spec := s.Spec()
	c := Coord{Model: "markov", Point: Point{5, 1, 0}, Trial: 0}
	recs := []InstanceResult{
		{Point: c.Point, Trial: c.Trial, Model: c.Model, Heuristic: "Y-IE", Makespan: 5},
		{Point: c.Point, Trial: c.Trial, Model: c.Model, Heuristic: "IAY", Makespan: 7},
		{Point: c.Point, Trial: c.Trial, Model: c.Model, Heuristic: "RANDOM", Makespan: 9},
		{Point: c.Point, Trial: c.Trial, Model: c.Model, Heuristic: "IE", Makespan: 6},
	}
	want := map[string][2]float64{ // %wins, %wins30
		"IE": {100, 100}, "Y-IE": {100, 100}, "IAY": {0, 100}, "RANDOM": {0, 0},
	}
	var perm func(k int)
	perm = func(k int) {
		if k == len(recs) {
			for _, format := range []Format{FormatJSONL, FormatBinary} {
				path := filepath.Join(t.TempDir(), "order."+format.String())
				j, err := createJournal(sweepKind, path, format, spec, Shard{})
				if err != nil {
					t.Fatal(err)
				}
				for _, in := range recs {
					if err := j.Append(in); err != nil {
						t.Fatal(err)
					}
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				res, err := AggregateJournal(path)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := res.Table(ReferenceHeuristic)
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) != len(want) {
					t.Fatalf("order %v: %d rows, want %d", heuristicsOf(recs), len(rows), len(want))
				}
				for _, row := range rows {
					if w := want[row.Heuristic]; row.Wins != w[0] || row.Wins30 != w[1] {
						t.Fatalf("order %v, %s journal: %s wins %.0f%%/%.0f%%, want %.0f%%/%.0f%%",
							heuristicsOf(recs), format, row.Heuristic, row.Wins, row.Wins30, w[0], w[1])
					}
				}
			}
			return
		}
		for i := k; i < len(recs); i++ {
			recs[k], recs[i] = recs[i], recs[k]
			perm(k + 1)
			recs[k], recs[i] = recs[i], recs[k]
		}
	}
	perm(0)
}

func heuristicsOf(insts []InstanceResult) []string {
	var out []string
	for _, in := range insts {
		out = append(out, in.Heuristic)
	}
	return out
}

// FuzzTableAccumulator: the same set of records, fed in two fuzz-chosen
// orders, renders identical tables and dominance, and both match the
// definition. Each 4-byte group of data is one record: its model, ncom,
// wmin, scenario, trial and heuristic may fall off the campaign's grid,
// and a key's first record is the one kept.
func FuzzTableAccumulator(f *testing.F) {
	f.Add([]byte{0, 0, 0, 10, 0, 0, 1, 20, 0, 0, 2, 30}, uint64(1), uint64(2), uint8(0))
	f.Add([]byte{0, 0, 3, 5, 0, 0, 2, 9, 0, 0, 0, 6, 0, 0, 1, 7}, uint64(3), uint64(4), uint8(1))
	f.Add([]byte{5, 9, 0, 250, 5, 9, 2, 3, 5, 9, 1, 240, 2, 4, 4, 1, 1, 1, 1, 1}, uint64(5), uint64(6), uint8(2))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, uint64(7), uint64(7), uint8(3))
	sp := accSpec("IE", "Y-IE", "RANDOM")
	models := []string{"markov", "semimarkov", "lognormal", ""}
	ncoms := []int{10, 5, 99}
	heuristics := []string{"IE", "Y-IE", "RANDOM", "IAY"}
	f.Fuzz(func(t *testing.T, data []byte, orderA, orderB uint64, shard uint8) {
		var insts []InstanceResult
		for i := 0; i+4 <= len(data) && len(insts) < 512; i += 4 {
			b0, b1, b2, b3 := int(data[i]), int(data[i+1]), int(data[i+2]), data[i+3]
			in := InstanceResult{
				Model:     models[b0%len(models)],
				Point:     Point{ncoms[b0/4%len(ncoms)], 1 + b1%4, b1 / 4 % 3},
				Trial:     b2/4%4 - b2/16%2,
				Heuristic: heuristics[b2%len(heuristics)],
				Makespan:  100 + int64(b3%40),
			}
			switch {
			case b3 >= 224:
				in.Makespan, in.Failed = sp.Cap, true
			case b3 >= 200:
				in.Makespan = math.MaxInt32 - 12 + int64(b3-200) // both sides of int32
			case b3 == 199:
				in.Makespan = math.MinInt32
			}
			insts = append(insts, in)
		}
		insts = distinct(insts)
		sh := []Shard{{0, 1}, {0, 2}, {1, 2}, {1, 3}}[shard%4]
		wmins := wminsOf(sp, insts)
		want := refViews(insts, wmins, true)
		for _, spec := range []*SweepSpec{&sp, nil} {
			var got [2]tableViews
			for i, seed := range []uint64{orderA, orderB} {
				order := slices.Clone(insts)
				r := rand.New(rand.NewPCG(seed, 0))
				r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				got[i] = viewsOf(feedAcc(spec, sh, order, spec != nil), wmins)
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Fatalf("campaign %v: orders disagree:\n%+v\n%+v", spec != nil, got[0], got[1])
			}
			if !reflect.DeepEqual(got[0], want) {
				t.Fatalf("campaign %v: got %+v\nwant %+v", spec != nil, got[0], want)
			}
		}
	})
}

// TestShardedMultiModelTablesAgree: for one shard of a multi-model
// sweep, a DiscardInstances run, journal replays of both formats and a
// Result carrying Instances render byte-identical Tables I–III and
// Figure 2, and the same dominance count.
func TestShardedMultiModelTablesAgree(t *testing.T) {
	s := tinySweep([]string{"IE", "Y-IE", "RANDOM"})
	s.Models = []avail.Model{avail.MarkovModel{}, cheapSemiMarkov()}
	shard := Shard{Index: 1, Count: 3}
	render := func(r *Result) string {
		t.Helper()
		rows, err := r.Table(ReferenceHeuristic)
		if err != nil {
			t.Fatal(err)
		}
		tables, err := r.TableIII(ReferenceHeuristic)
		if err != nil {
			t.Fatal(err)
		}
		series, err := r.Figure2(ReferenceHeuristic)
		if err != nil {
			t.Fatal(err)
		}
		return FormatTable(rows) + "\n" + FormatTableIII(tables) + "\n" + FormatFigure2(series, nil) +
			fmt.Sprintf("\ndominance %d\n", r.RefFailureDominance(ReferenceHeuristic))
	}
	full, err := Run(context.Background(), s, RunOptions{Shard: shard})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Instances) == 0 {
		t.Fatal("the shard ran no instances")
	}
	want := render(full)
	for _, format := range []Format{FormatJSONL, FormatBinary} {
		path := filepath.Join(t.TempDir(), "shard."+format.String())
		j, err := CreateJournalFormat(path, s, shard, format)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), s, RunOptions{Shard: shard, Journal: j, DiscardInstances: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if res.Instances != nil {
			t.Fatal("DiscardInstances run holds instances")
		}
		if got := render(res); got != want {
			t.Fatalf("DiscardInstances run renders\n%s\nwant\n%s", got, want)
		}
		agg, err := AggregateJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := render(agg); got != want {
			t.Fatalf("%s journal replay renders\n%s\nwant\n%s", format, got, want)
		}
	}
}

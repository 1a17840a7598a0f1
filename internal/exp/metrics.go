package exp

import (
	"fmt"
	"sort"
	"strings"
)

// ReferenceHeuristic is the comparison baseline of Section VII: IE is the
// most robust heuristic (whenever it fails, everything fails), so all
// relative metrics are computed against it.
const ReferenceHeuristic = "IE"

// TableRow is one aggregated line of Table I / Table II.
type TableRow struct {
	Heuristic string
	// Fails counts instances (scenario × trial) the heuristic failed.
	Fails int
	// Diff is the mean over scenarios of the paper's relative difference
	//   (makespan_H − makespan_ref) / min(makespan_H, makespan_ref),
	// in percent, with per-scenario makespans averaged over succeeding
	// trials. Negative is better than the reference.
	Diff float64
	// Wins is the percentage of trials with makespan_H <= makespan_ref.
	Wins float64
	// Wins30 is the percentage of trials with
	// makespan_H <= 1.3 · makespan_ref.
	Wins30 float64
	// Stdv is the standard deviation of the per-scenario relative
	// difference (in the paper's units: 1.0 = 100%).
	Stdv float64
}

// scenarioKey groups instances of one scenario draw under one
// availability model: relative metrics always compare runs that saw the
// same ground truth.
type scenarioKey struct {
	Ncom, Wmin, Scenario int
	Model                string
}

// Table aggregates the campaign into rows sorted by %diff ascending (the
// paper's ordering: best heuristics first). ref names the reference
// heuristic, normally ReferenceHeuristic. With a multi-model campaign the
// per-scenario differences of every model pool into one row per
// heuristic; use TableForModel or TableIII to slice by model.
func (r *Result) Table(ref string) ([]TableRow, error) {
	return r.tableFiltered(ref, nil)
}

// TableForWmin aggregates only the instances with the given wmin; it is
// the slicing behind Figure 2.
func (r *Result) TableForWmin(ref string, wmin int) ([]TableRow, error) {
	return r.tableFiltered(ref, func(k scenarioKey) bool { return k.Wmin == wmin })
}

// TableForModel aggregates only the instances run under the named
// availability model (instances recorded before models existed count as
// "markov").
func (r *Result) TableForModel(ref, model string) ([]TableRow, error) {
	return r.tableFiltered(ref, func(k scenarioKey) bool { return k.Model == model })
}

// Models returns the distinct availability-model names in the results,
// sorted; instances recorded before models existed count as "markov".
// Aggregation-only results read the names off their streaming
// accumulators.
func (r *Result) Models() []string {
	if len(r.Instances) == 0 && r.agg != nil {
		st := r.aggState()
		st.mu.Lock()
		defer st.mu.Unlock()
		for _, acc := range st.byRef {
			return acc.models()
		}
	}
	seen := map[string]bool{}
	for _, inst := range r.Instances {
		seen[modelName(inst)] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// modelName normalizes an instance's model ("markov" when empty, the
// pre-model-axis encoding).
func modelName(inst InstanceResult) string {
	if inst.Model == "" {
		return "markov"
	}
	return inst.Model
}

// tableFiltered renders table rows for ref over the scenario keys keep
// admits, from the per-ref accumulator aggFor returns (aggregate.go): a
// fresh walk over Instances on each call for results that carry them,
// and for aggregation-only results their streaming accumulators, without
// any instance slice at all.
func (r *Result) tableFiltered(ref string, keep func(scenarioKey) bool) ([]TableRow, error) {
	acc, err := r.aggFor(ref)
	if err != nil {
		return nil, err
	}
	return acc.rows(keep)
}

// RefFailureDominance checks the paper's robustness observation: whenever
// the reference heuristic fails an instance, does every other heuristic
// fail it too? It returns the number of counterexample instances.
func (r *Result) RefFailureDominance(ref string) int {
	acc, err := r.aggFor(ref)
	if err != nil {
		return 0
	}
	acc.finish()
	return acc.dominance
}

// FormatTable renders rows in the paper's Table I/II layout.
func FormatTable(rows []TableRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %7s %9s %8s %9s %7s\n",
		"Heuristic", "#fails", "%diff", "%wins", "%wins30", "stdv")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %7d %9.2f %8.2f %9.2f %7.2f\n",
			r.Heuristic, r.Fails, r.Diff, r.Wins, r.Wins30, r.Stdv)
	}
	return b.String()
}

// ModelTable is one availability model's aggregated rows within a
// multi-model campaign.
type ModelTable struct {
	Model string
	Rows  []TableRow
}

// TableIII aggregates a multi-model campaign into one table per
// availability model — the cross-model comparison the paper's
// Section VII.B speculates about (how "wrong" do the Markov heuristics
// get when the Markov assumption is violated?). Within each model the
// metrics are the usual Table I/II quantities relative to ref.
func (r *Result) TableIII(ref string) ([]ModelTable, error) {
	var out []ModelTable
	for _, model := range r.Models() {
		rows, err := r.TableForModel(ref, model)
		if err != nil {
			return nil, fmt.Errorf("model %s: %w", model, err)
		}
		out = append(out, ModelTable{Model: model, Rows: rows})
	}
	return out, nil
}

// FormatTableIII renders per-model tables in the Table I/II layout.
func FormatTableIII(tables []ModelTable) string {
	var b strings.Builder
	for i, mt := range tables {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "availability model: %s\n", mt.Model)
		b.WriteString(FormatTable(mt.Rows))
	}
	return b.String()
}

// SeriesPoint is one (wmin, %diff) sample of a Figure 2 curve.
type SeriesPoint struct {
	Wmin int
	Diff float64 // relative distance to the reference (1.0 = 100%)
}

// Figure2 computes the %diff-versus-wmin curves of Figure 2 (one per
// heuristic, relative distance as a fraction like the paper's y-axis).
func (r *Result) Figure2(ref string) (map[string][]SeriesPoint, error) {
	wmins := append([]int(nil), r.Sweep.Wmins...)
	sort.Ints(wmins)
	series := map[string][]SeriesPoint{}
	for _, wmin := range wmins {
		rows, err := r.TableForWmin(ref, wmin)
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			series[row.Heuristic] = append(series[row.Heuristic],
				SeriesPoint{Wmin: wmin, Diff: row.Diff / 100})
		}
	}
	return series, nil
}

// FormatFigure2 renders the curves as aligned columns (one row per wmin),
// restricted to the named heuristics (all, alphabetically, when nil).
func FormatFigure2(series map[string][]SeriesPoint, names []string) string {
	if names == nil {
		for n := range series {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "wmin")
	for _, n := range names {
		fmt.Fprintf(&b, " %10s", n)
	}
	b.WriteByte('\n')
	if len(names) == 0 || len(series[names[0]]) == 0 {
		return b.String()
	}
	for i, pt := range series[names[0]] {
		fmt.Fprintf(&b, "%-6d", pt.Wmin)
		for _, n := range names {
			pts := series[n]
			if i < len(pts) {
				fmt.Fprintf(&b, " %10.3f", pts[i].Diff)
			} else {
				fmt.Fprintf(&b, " %10s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

package serve

import (
	"reflect"
	"strings"
	"testing"

	"tightsched"
)

// gridSpecValidationCases are malformed grid specs, each with the path
// and message its 400 must carry.
var gridSpecValidationCases = []struct {
	name     string
	doc      string
	ct       string
	wantPath string
	wantMsg  string // substring of the message
}{
	{"grid and sweep together",
		`{"version": 1, "preset": "quick", "sweep": {"m": 5}, "grid": {"trials": 1}}`,
		"application/json", "grid", "mutually exclusive"},
	{"unknown grid field",
		"version: 1\npreset: quick\ngrid:\n  banana: 1\n",
		"application/yaml", "grid.banana", "unknown field"},
	{"missing tiers without preset",
		"version: 1\ngrid:\n  trials: 1\n",
		"application/yaml", "grid.tiers", "required without a preset"},
	{"non-positive horizon",
		"version: 1\npreset: quick\ngrid:\n  horizon: 0\n",
		"application/yaml", "grid.horizon", "positive"},
	{"unknown admission policy",
		"version: 1\npreset: quick\ngrid:\n  admissions: [fcfs, vip-first]\n",
		"application/yaml", "grid.admissions[1]", "unknown admission policy"},
	{"unknown preemption policy",
		"version: 1\npreset: quick\ngrid:\n  preemptions: [chaos]\n",
		"application/yaml", "grid.preemptions[0]", "unknown preemption policy"},
	{"offline advance knob",
		"version: 1\npreset: quick\ngrid:\n  trials: 1\nrun:\n  advance: batch\n",
		"application/yaml", "run.advance", "does not apply to an online grid campaign"},
	{"offline shard knob",
		"version: 1\npreset: quick\ngrid:\n  trials: 1\nrun:\n  shard: 0/2\n",
		"application/yaml", "run.shard", "does not apply to an online grid campaign"},
	{"offline cluster knob",
		"version: 1\npreset: quick\ngrid:\n  trials: 1\nrun:\n  cluster:\n    units: 4\n",
		"application/yaml", "run.cluster", "does not apply to an online grid campaign"},
	{"tier missing speed",
		`{"version": 1, "preset": "quick", "grid": {"tiers": [{"count": 4}]}}`,
		"application/json", "grid.tiers[0].speed", "required"},
	{"tier unknown field",
		`{"version": 1, "preset": "quick", "grid": {"tiers": [{"count": 4, "speed": 1, "flops": 9}]}}`,
		"application/json", "grid.tiers[0].flops", "unknown field"},
	{"arrival missing kind",
		`{"version": 1, "preset": "quick", "grid": {"arrivals": [{"meanGap": 100, "apps": 5, "wminLo": 1, "wminHi": 2}]}}`,
		"application/json", "grid.arrivals[0].kind", "required"},
	{"arrival ill-typed deadlineFactor",
		`{"version": 1, "preset": "quick", "grid": {"arrivals": [{"kind": "poisson", "meanGap": 100, "apps": 5, "wminLo": 1, "wminHi": 2, "deadlineFactor": "soon"}]}}`,
		"application/json", "grid.arrivals[0].deadlineFactor", "must be a number"},
	{"trace entry missing app",
		`{"version": 1, "preset": "quick", "grid": {"arrivals": [{"kind": "trace", "trace": [{"t": 0, "wmin": 1}]}]}}`,
		"application/json", "grid.arrivals[0].trace[0].app", "required"},
	{"semantically invalid grid",
		`{"version": 1, "preset": "quick", "grid": {"appProcs": 1000}}`,
		"application/json", "grid", "exceeds platform size"},
	{"unknown heuristic via validate",
		"version: 1\npreset: quick\ngrid:\n  heuristic: FANCY\n",
		"application/yaml", "grid", "unknown heuristic"},
}

// TestDecodeGridSpecValidationPaths: every malformed grid spec must be
// rejected at submit time with a structured 400 naming the offending
// path, exactly like the sweep block's validation. Nested lists of
// mappings (tiers, arrivals, trace entries) are JSON-only — the YAML
// subset has no block-list mappings — so most cases here are JSON.
func TestDecodeGridSpecValidationPaths(t *testing.T) {
	for _, tc := range gridSpecValidationCases {
		t.Run(tc.name, func(t *testing.T) {
			_, serr := DecodeSpec([]byte(tc.doc), tc.ct)
			if serr == nil {
				t.Fatalf("spec accepted, want error at %q", tc.wantPath)
			}
			if serr.Path != tc.wantPath {
				t.Errorf("error path = %q, want %q (message %q)", serr.Path, tc.wantPath, serr.Message)
			}
			if !strings.Contains(serr.Message, tc.wantMsg) {
				t.Errorf("message %q does not mention %q", serr.Message, tc.wantMsg)
			}
		})
	}
}

// TestDecodeGridSpecDefaults: the quick preset supplies the library's
// quick online campaign, explicit fields override it, and run.workers
// lands on the runnable sweep without entering the stamped identity.
func TestDecodeGridSpecDefaults(t *testing.T) {
	spec, serr := DecodeSpec([]byte("version: 1\npreset: quick\ngrid:\n  trials: 1\n  seed: 7\nrun:\n  workers: 2\n"), "")
	if serr != nil {
		t.Fatal(serr)
	}
	if spec.Grid == nil || spec.GridStamped == nil {
		t.Fatal("grid spec decoded without a grid campaign")
	}
	want := tightsched.QuickOnlineSweep()
	want.Trials = 1
	want.Seed = 7
	want.Workers = 2
	if !reflect.DeepEqual(*spec.Grid, want) {
		t.Errorf("decoded grid = %+v, want quick preset with overrides %+v", *spec.Grid, want)
	}
	stamped := want.Spec()
	if !reflect.DeepEqual(*spec.GridStamped, stamped) {
		t.Errorf("stamped identity = %+v, want %+v", *spec.GridStamped, stamped)
	}
	if !spec.Journal {
		t.Error("journaling should default on for grid campaigns too")
	}

	// A fully explicit JSON grid spec round-trips through the same walk.
	custom, serr := DecodeSpec([]byte(customGridJSON), "application/json")
	if serr != nil {
		t.Fatal(serr)
	}
	g := custom.Grid
	if g.Heuristic != "IE" || g.Model != "diurnal" {
		t.Errorf("no-preset defaults = heuristic %q model %q, want IE/diurnal", g.Heuristic, g.Model)
	}
	if len(g.Tiers) != 2 || g.Tiers[1].Speed != 3 {
		t.Errorf("tiers = %+v", g.Tiers)
	}
	if len(g.Arrivals) != 2 || g.Arrivals[1].Trace[0].App != "a0" || g.Arrivals[0].DeadlineFactor != 20 {
		t.Errorf("arrivals = %+v", g.Arrivals)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("decoded grid does not validate: %v", err)
	}
}

// customGridJSON is a fully explicit grid spec with no preset.
const customGridJSON = `{
  "version": 1, "name": "custom-grid",
  "grid": {
    "tiers": [{"count": 4, "speed": 1}, {"count": 2, "speed": 3}],
    "ncom": 6, "appProcs": 2, "m": 5, "iterations": 5,
    "horizon": 5000, "trials": 1, "seed": 3,
    "arrivals": [
      {"kind": "poisson", "meanGap": 200, "apps": 4, "wminLo": 1, "wminHi": 2, "deadlineFactor": 20},
      {"kind": "trace", "trace": [{"t": 0, "app": "a0", "wmin": 1, "deadline": 900}]}
    ],
    "admissions": ["fcfs", "edf"],
    "preemptions": ["none"]
  }
}`

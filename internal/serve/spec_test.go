package serve

import (
	"reflect"
	"strings"
	"testing"

	"tightsched"
)

// TestDecodeSpecValidationPaths: every malformed spec must be rejected at
// submit time with a structured error naming the offending path — the
// service-layer mirror of the Session options' scope checks. The table
// covers the contract cases: unknown fields at every level, an
// out-of-range advance mode, a shard with index >= count, missing sweep
// axes, version/type defects, and unknown registry names.
func TestDecodeSpecValidationPaths(t *testing.T) {
	cases := []struct {
		name     string
		yaml     string
		wantPath string
		wantMsg  string // substring of the message
	}{
		{"missing version", "sweep:\n  m: 5\n", "version", "required"},
		{"unsupported version", "version: 2\nsweep:\n  m: 5\n", "version", "unsupported spec version 2"},
		{"unknown top-level field", "version: 1\nbanana: 1\nsweep:\n  m: 5\n", "banana", "unknown field"},
		{"unknown sweep field", "version: 1\nsweep:\n  m: 5\n  foo: 3\n", "sweep.foo", "unknown field"},
		{"unknown run field", "version: 1\npreset: quick\nsweep:\n  m: 5\nrun:\n  turbo: true\n", "run.turbo", "unknown field"},
		{"missing sweep", "version: 1\n", "sweep", "required"},
		{"missing m", "version: 1\npreset: quick\nsweep:\n  ncoms: [5]\n", "sweep.m", "required"},
		{"missing ncoms without preset", "version: 1\nsweep:\n  m: 5\n  wmins: [1]\n  scenarios: 1\n  trials: 1\n", "sweep.ncoms", "required without a preset"},
		{"missing wmins without preset", "version: 1\nsweep:\n  m: 5\n  ncoms: [5]\n  scenarios: 1\n  trials: 1\n", "sweep.wmins", "required without a preset"},
		{"missing scenarios without preset", "version: 1\nsweep:\n  m: 5\n  ncoms: [5]\n  wmins: [1]\n  trials: 1\n", "sweep.scenarios", "required without a preset"},
		{"missing trials without preset", "version: 1\nsweep:\n  m: 5\n  ncoms: [5]\n  wmins: [1]\n  scenarios: 1\n", "sweep.trials", "required without a preset"},
		{"bad preset", "version: 1\npreset: medium\nsweep:\n  m: 5\n", "preset", "unknown preset"},
		{"out-of-range advance", "version: 1\npreset: quick\nsweep:\n  m: 5\nrun:\n  advance: warp\n", "run.advance", "unknown time advance"},
		{"shard index >= count", "version: 1\npreset: quick\nsweep:\n  m: 5\nrun:\n  shard: 3/3\n", "run.shard", "invalid shard"},
		{"shard malformed", "version: 1\npreset: quick\nsweep:\n  m: 5\nrun:\n  shard: everything\n", "run.shard", "invalid shard"},
		{"unknown heuristic", "version: 1\npreset: quick\nsweep:\n  m: 5\n  heuristics: [IE, FANCY]\n", "sweep.heuristics[1]", "unknown heuristic"},
		{"unknown model", "version: 1\npreset: quick\nsweep:\n  m: 5\n  models: [quantum]\n", "sweep.models[0]", "unknown availability model"},
		{"negative workers", "version: 1\npreset: quick\nsweep:\n  m: 5\nrun:\n  workers: -1\n", "run.workers", ">= 0"},
		{"negative maxLeap", "version: 1\npreset: quick\nsweep:\n  m: 5\nrun:\n  maxLeap: -5\n", "run.maxLeap", ">= 0"},
		{"non-positive m", "version: 1\npreset: quick\nsweep:\n  m: 0\n", "sweep.m", "positive"},
		{"ill-typed m", "version: 1\npreset: quick\nsweep:\n  m: five\n", "sweep.m", "must be an integer"},
		{"ill-typed ncoms element", "version: 1\npreset: quick\nsweep:\n  m: 5\n  ncoms: [5, many]\n", "sweep.ncoms[1]", "positive integer"},
		{"empty ncoms", "version: 1\npreset: quick\nsweep:\n  m: 5\n  ncoms: []\n", "sweep.ncoms", "must not be empty"},
		{"non-positive cap", "version: 1\npreset: quick\nsweep:\n  m: 5\n  cap: 0\n", "sweep.cap", "positive"},
		{"ill-typed journal flag", "version: 1\npreset: quick\nsweep:\n  m: 5\nrun:\n  journal: maybe\n", "run.journal", "true or false"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, serr := DecodeSpec([]byte(tc.yaml), "application/yaml")
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

// TestDecodeSpecFormatsConverge: the same campaign submitted as YAML and
// as JSON must resolve to the identical stamped identity and runtime
// configuration — one schema walk serves both formats.
func TestDecodeSpecFormatsConverge(t *testing.T) {
	yamlDoc := `
version: 1
name: parity
sweep:
  m: 5
  ncoms: [5, 10]     # flow list
  wmins:
    - 1
    - 2
  scenarios: 1
  trials: 1
  cap: 50000
  seed: 7
  heuristics: [IE, Y-IE]
run:
  advance: batch
  workers: 2
  shard: "0/2"
`
	jsonDoc := `{
  "version": 1, "name": "parity",
  "sweep": {"m": 5, "ncoms": [5, 10], "wmins": [1, 2], "scenarios": 1,
            "trials": 1, "cap": 50000, "seed": 7, "heuristics": ["IE", "Y-IE"]},
  "run": {"advance": "batch", "workers": 2, "shard": "0/2"}
}`
	fromYAML, serr := DecodeSpec([]byte(yamlDoc), "application/yaml")
	if serr != nil {
		t.Fatalf("yaml: %v", serr)
	}
	fromJSON, serr := DecodeSpec([]byte(jsonDoc), "application/json")
	if serr != nil {
		t.Fatalf("json: %v", serr)
	}
	if !reflect.DeepEqual(fromYAML.Stamped, fromJSON.Stamped) {
		t.Errorf("stamped identities diverge:\nyaml: %+v\njson: %+v", fromYAML.Stamped, fromJSON.Stamped)
	}
	if fromYAML.Sweep.Advance != fromJSON.Sweep.Advance ||
		fromYAML.Sweep.Workers != fromJSON.Sweep.Workers ||
		fromYAML.Shard != fromJSON.Shard {
		t.Errorf("runtime knobs diverge: yaml %+v/%v, json %+v/%v",
			fromYAML.Sweep.Advance, fromYAML.Shard, fromJSON.Sweep.Advance, fromJSON.Shard)
	}
	// "leap" and "batch" both name the production core.
	leapDoc := strings.Replace(yamlDoc, "advance: batch", "advance: leap", 1)
	if leapDoc == yamlDoc {
		t.Fatal("leap variant not built")
	}
	fromLeap, serr := DecodeSpec([]byte(leapDoc), "application/yaml")
	if serr != nil {
		t.Fatalf("yaml leap: %v", serr)
	}
	if fromLeap.Sweep.Advance != fromYAML.Sweep.Advance {
		t.Errorf("run.advance leap decodes to %v, batch to %v", fromLeap.Sweep.Advance, fromYAML.Sweep.Advance)
	}
	// Content-type sniffing: a JSON body with no content type still lands
	// on the JSON path.
	sniffed, serr := DecodeSpec([]byte(jsonDoc), "")
	if serr != nil {
		t.Fatalf("sniffed json: %v", serr)
	}
	if !reflect.DeepEqual(sniffed.Stamped, fromJSON.Stamped) {
		t.Error("content-type sniffing changed the decoded spec")
	}
}

// TestDecodeSpecDefaults: presets supply the paper campaigns; explicit
// fields override; the no-preset path applies the paper's constants for
// the optional knobs.
func TestDecodeSpecDefaults(t *testing.T) {
	spec, serr := DecodeSpec([]byte("version: 1\npreset: quick\nsweep:\n  m: 5\n  trials: 1\n"), "")
	if serr != nil {
		t.Fatal(serr)
	}
	quick := tightsched.QuickSweep(5)
	if !reflect.DeepEqual(spec.Stamped.Ncoms, quick.Ncoms) || !reflect.DeepEqual(spec.Stamped.Wmins, quick.Wmins) {
		t.Errorf("quick preset axes not applied: %+v", spec.Stamped)
	}
	if spec.Stamped.Trials != 1 {
		t.Errorf("explicit trials should override the preset, got %d", spec.Stamped.Trials)
	}
	if spec.Stamped.Scenarios != quick.Scenarios || spec.Stamped.Cap != quick.Cap || spec.Stamped.Seed != quick.Seed {
		t.Errorf("quick preset defaults not applied: %+v", spec.Stamped)
	}
	if !spec.Journal {
		t.Error("journaling should default on")
	}
	wantHeuristics := quick.Spec().Heuristics
	if !reflect.DeepEqual(spec.Stamped.Heuristics, wantHeuristics) {
		t.Errorf("default heuristics = %v, want the library default set %v",
			spec.Stamped.Heuristics, wantHeuristics)
	}

	bare, serr := DecodeSpec([]byte("version: 1\nsweep:\n  m: 5\n  ncoms: [5]\n  wmins: [1]\n  scenarios: 1\n  trials: 1\n"), "")
	if serr != nil {
		t.Fatal(serr)
	}
	if bare.Stamped.P != 20 || bare.Stamped.Iterations != 10 || bare.Stamped.Cap != tightsched.DefaultCap {
		t.Errorf("paper defaults not applied without preset: %+v", bare.Stamped)
	}
}

// TestParseYAMLSubset pins the decoder's contract: the supported subset
// produces exactly the JSON-style generic tree, and out-of-subset input
// fails loudly with a line number.
func TestParseYAMLSubset(t *testing.T) {
	doc := `
# campaign
version: 1
name: "quoted: name"   # trailing comment
label: 'it''s quick'
flag: true
nothing: ~
sweep:
  m: 5
  ncoms: [5, 10, 20]
  wmins:
    - 1
    - 2
`
	tree, err := parseYAML([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	root := tree.(map[string]any)
	if root["name"] != "quoted: name" {
		t.Errorf("double-quoted scalar = %q", root["name"])
	}
	if root["label"] != "it's quick" {
		t.Errorf("single-quoted scalar = %q", root["label"])
	}
	if root["flag"] != true || root["nothing"] != nil {
		t.Errorf("bool/null scalars = %v / %v", root["flag"], root["nothing"])
	}
	sweep := root["sweep"].(map[string]any)
	if got := sweep["ncoms"].([]any); len(got) != 3 {
		t.Errorf("flow list = %v", got)
	}
	if got := sweep["wmins"].([]any); len(got) != 2 {
		t.Errorf("block list = %v", got)
	}

	bad := []struct{ name, doc, want string }{
		{"tab indent", "a: 1\n\tb: 2\n", "tab in indentation"},
		{"duplicate key", "a: 1\na: 2\n", "duplicate key"},
		{"anchor", "a: &x 1\n", "outside the supported YAML subset"},
		{"nested block list", "a:\n  -\n", "nested block list"},
		{"bare text", "not a mapping\n", "key: value"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseYAML([]byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("parseYAML(%q) error = %v, want mention of %q", tc.doc, err, tc.want)
			}
		})
	}
}

// Package serve is the campaign service layer behind cmd/tightschedd: a
// long-running HTTP front door over the tightsched Session API. Campaigns
// arrive as versioned declarative specs (YAML or JSON), run on a bounded
// runner pool with journals on disk, stream typed progress events to any
// number of SSE subscribers, and expose Prometheus-style metrics — the
// ROADMAP's "heavy traffic from many users" entry point, grounded in the
// spiderpool daemon shape (serve loop, handler layout, metrics, graceful
// shutdown) and the CAPV API-contract style of explicit, validated
// request documents.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"tightsched"
)

// SpecVersion is the campaign-spec document version this daemon speaks.
const SpecVersion = 1

// SpecError is one structured spec rejection: the path of the offending
// field (empty for document-level failures) and what is wrong with it.
// It is the JSON body of every 400 the submit endpoint returns, so
// clients can point at the exact line of their spec — the service-layer
// mirror of the Session options' scope-check errors, which likewise
// refuse to silently ignore configuration.
type SpecError struct {
	Path    string `json:"path,omitempty"`
	Message string `json:"message"`
}

func (e *SpecError) Error() string {
	if e.Path == "" {
		return "spec: " + e.Message
	}
	return fmt.Sprintf("spec: %s: %s", e.Path, e.Message)
}

func specErr(path, format string, args ...any) *SpecError {
	return &SpecError{Path: path, Message: fmt.Sprintf(format, args...)}
}

// Spec is a validated, defaulted campaign spec: the declarative contract
// of POST /v1/campaigns. Sweep is runnable (models resolved through the
// open registry) and Stamped is its serialized identity — the same
// SweepSpec that journal headers carry, so a spec, its journal and its
// status report all speak one format.
type Spec struct {
	// Name is the submitter's label for the campaign (optional; shown in
	// status listings, never interpreted).
	Name string
	// Preset records the requested defaults profile ("", "quick", "full").
	Preset string
	// Sweep is the runnable campaign (dimensions, heuristics, models,
	// plus run.workers already applied).
	Sweep tightsched.Sweep
	// Stamped is Sweep's resolved serialized identity.
	Stamped tightsched.SweepSpec
	// Shard is the grid slice to run (zero value: the whole campaign).
	Shard tightsched.SweepShard
	// Journal selects durable execution: the daemon journals the campaign
	// to its data directory, making cancellation resumable (default true).
	Journal bool
	// Format is the journal's on-disk encoding (run.format: jsonl |
	// binary; default jsonl). Restart sniffs the existing file, so the
	// choice matters only when the journal is first created.
	Format tightsched.JournalFormat
	// Cluster, when set, runs the campaign on external worker processes
	// with crash-tolerant leases (run.cluster block) instead of the
	// in-process runner pool.
	Cluster *ClusterSpec
	// Grid, when set, is a runnable online multi-application campaign
	// (grid block, mutually exclusive with sweep); Sweep is then zero and
	// the campaign runs through Session.RunOnline.
	Grid *tightsched.OnlineSweep
	// GridStamped is Grid's resolved serialized identity — the grid
	// journal header's spec.
	GridStamped *tightsched.OnlineSpec
}

// specDocument is the raw v1 document shape, named here only for
// documentation; decoding walks the generic tree so that every
// unknown or ill-typed field is reported with its exact path:
//
//	version: 1                 # required
//	name: quick-t1             # optional label
//	preset: quick              # optional: quick | full (defaults profile)
//	sweep:                     # required block, journal-header field names
//	  m: 5                     # required always
//	  ncoms: [5, 10, 20]       # required without preset
//	  wmins: [1, 2, 3]         # required without preset
//	  scenarios: 2             # required without preset
//	  trials: 2                # required without preset
//	  p: 20                    # default 20 (paper platform size)
//	  iterations: 10           # default 10
//	  cap: 100000              # default 1,000,000 (paper failure cap)
//	  seed: 20130522           # default 0
//	  heuristics: [IE, Y-IE]   # default: every registered heuristic
//	  models: [markov]         # default: the paper's Markov ground truth
//	  initialAllUp: false
//	run:                       # optional runtime knobs (never in identity)
//	  advance: leap            # v1 no-op, validated: leap | slot | batch
//	  maxLeap: 0               # v1 no-op, validated: >= 0
//	  workers: 0               # per-campaign parallel sims (0 = GOMAXPROCS)
//	  journal: true            # journal to the daemon's data dir
//	  format: jsonl            # journal encoding: jsonl | binary
//	  shard: 0/3               # run one slice of the grid
//	  cluster:                 # lease the grid to external workers
//	    units: 8               # initial work-unit decomposition
//	    leaseTtl: 15s          # lease expiry without a heartbeat
//	    gcInterval: 5s         # expired-lease sweep cadence
//	    reshard: true          # split requeued units in half
//
// An online multi-application campaign replaces the sweep block with a
// grid block (see gridspec.go for its schema); the two are mutually
// exclusive, and only run.workers and run.journal of the runtime knobs
// apply to grid campaigns.
//
// DecodeSpec parses, validates and defaults a campaign spec. contentType
// selects the format ("application/json", "application/yaml" or
// "text/yaml"; unset sniffs — documents starting with '{' are JSON).
// Every rejection is a *SpecError naming the offending path: unknown
// fields, an unsupported version, an out-of-range advance mode, a shard
// with index >= count, missing sweep axes, ill-typed values and unknown
// heuristic/model names all fail at submit time, never inside a worker.
func DecodeSpec(data []byte, contentType string) (*Spec, *SpecError) {
	tree, err := decodeTree(data, contentType)
	if err != nil {
		return nil, &SpecError{Message: err.Error()}
	}
	return specFromTree(tree)
}

// decodeTree parses the document into the generic JSON-style tree shared
// by both formats.
func decodeTree(data []byte, contentType string) (any, error) {
	ct := contentType
	if i := strings.Index(ct, ";"); i >= 0 {
		ct = ct[:i]
	}
	ct = strings.TrimSpace(strings.ToLower(ct))
	isJSON := strings.HasSuffix(ct, "json")
	if ct == "" || ct == "application/octet-stream" {
		isJSON = bytes.HasPrefix(bytes.TrimLeft(data, " \t\r\n"), []byte("{"))
	}
	if isJSON {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.UseNumber()
		tree, err := jsonValue(dec, 0)
		if err != nil {
			return nil, fmt.Errorf("invalid JSON: %v", err)
		}
		if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
			return nil, fmt.Errorf("invalid JSON: trailing content after the spec document")
		}
		return tree, nil
	}
	tree, err := parseYAML(data)
	if err != nil {
		return nil, fmt.Errorf("invalid YAML: %v", err)
	}
	return tree, nil
}

// maxJSONDepth is encoding/json's own nesting bound, which a token walk
// does not apply.
const maxJSONDepth = 10000

// jsonValue decodes one JSON value token by token into the generic tree
// (map[string]any, []any, string, json.Number, bool, nil). Unlike
// json.Decoder.Decode, it refuses a key that repeats within one object:
// encoding/json would silently keep the last value, where the YAML
// decoder rejects the same document.
func jsonValue(dec *json.Decoder, depth int) (any, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	delim, ok := tok.(json.Delim)
	if !ok {
		return tok, nil
	}
	if depth++; depth > maxJSONDepth {
		return nil, fmt.Errorf("exceeded max depth %d", maxJSONDepth)
	}
	var out any
	if delim == '[' {
		list := []any{}
		for dec.More() {
			v, err := jsonValue(dec, depth)
			if err != nil {
				return nil, err
			}
			list = append(list, v)
		}
		out = list
	} else {
		m := map[string]any{}
		for dec.More() {
			tok, err := dec.Token()
			if err != nil {
				return nil, err
			}
			key := tok.(string) // the decoder only yields string keys
			if _, dup := m[key]; dup {
				return nil, fmt.Errorf("duplicate key %q", key)
			}
			if m[key], err = jsonValue(dec, depth); err != nil {
				return nil, err
			}
		}
		out = m
	}
	if _, err := dec.Token(); err != nil { // the closing delimiter
		return nil, err
	}
	return out, nil
}

// specFromTree walks the generic tree against the v1 schema.
func specFromTree(tree any) (*Spec, *SpecError) {
	root, ok := tree.(map[string]any)
	if !ok {
		return nil, specErr("", "spec document must be a mapping")
	}
	spec := &Spec{Journal: true}
	var sweepMap, gridMap, runMap map[string]any
	if serr := decodeBlock(root, "", false,
		field{key: "version", need: fmt.Sprintf("required (this daemon speaks spec v%d)", SpecVersion),
			set: func(v any, path string) *SpecError {
				version, serr := int64Of(v, path)
				if serr == nil && version != SpecVersion {
					serr = specErr(path, "unsupported spec version %d (this daemon speaks v%d)", version, SpecVersion)
				}
				return serr
			}},
		field{key: "name", set: stringTo(&spec.Name)},
		field{key: "preset", set: func(v any, path string) (serr *SpecError) {
			spec.Preset, serr = stringOf(v, path)
			if serr == nil && spec.Preset != "" && spec.Preset != "quick" && spec.Preset != "full" {
				serr = specErr(path, "unknown preset %q (choose quick or full, or omit)", spec.Preset)
			}
			return serr
		}},
		field{key: "sweep", set: mappingTo(&sweepMap)},
		field{key: "grid", set: mappingTo(&gridMap)},
		field{key: "run", set: mappingTo(&runMap)},
	); serr != nil {
		return nil, serr
	}
	if sweepMap != nil && gridMap != nil {
		return nil, specErr("grid", "mutually exclusive with sweep (a campaign is offline or online, not both)")
	}
	if sweepMap == nil && gridMap == nil {
		return nil, specErr("sweep", "required block (campaign dimensions; or a grid block for an online campaign)")
	}

	var sweep tightsched.Sweep
	var serr *SpecError
	if gridMap != nil {
		var g tightsched.OnlineSweep
		g, serr = gridFromTree(gridMap, spec.Preset)
		spec.Grid = &g
	} else {
		sweep, serr = sweepFromTree(sweepMap, spec.Preset)
	}
	workers := 0
	if serr == nil {
		workers, serr = runFromTree(runMap, spec)
	}
	if serr != nil {
		return nil, serr
	}

	if g := spec.Grid; g != nil {
		g.Workers = workers
		if err := g.Validate(); err != nil {
			return nil, &SpecError{Path: "grid", Message: err.Error()}
		}
		stamped := g.Spec()
		spec.GridStamped = &stamped
		return spec, nil
	}
	built, err := tightsched.SweepFromSpec(sweep.Spec())
	if err != nil {
		return nil, &SpecError{Path: "sweep", Message: err.Error()}
	}
	built.Workers = workers
	spec.Sweep = built
	spec.Stamped = built.Spec()
	return spec, nil
}

// sweepFromTree builds the campaign dimensions, defaulting from the
// preset profile when one is named and from the paper's constants
// otherwise (the presets differ from those only in their axes and in m,
// which the block always sets). Axes have no sensible defaults without a
// preset, so a missing axis is a per-path rejection — silence would run
// a campaign the submitter never described.
func sweepFromTree(m map[string]any, preset string) (tightsched.Sweep, *SpecError) {
	var sweep tightsched.Sweep
	switch preset {
	case "quick":
		sweep = tightsched.QuickSweep(0)
	case "full":
		sweep = tightsched.PaperSweep(0)
	default:
		sweep = tightsched.Sweep{P: 20, Iterations: 10, Cap: tightsched.DefaultCap}
	}
	serr := decodeBlock(m, "sweep.", preset != "",
		field{key: "m", set: intTo(&sweep.M, 1, positiveInt),
			need: "required (tasks per iteration; the paper uses 5 and 10)"},
		field{key: "ncoms", set: positiveIntsTo(&sweep.Ncoms), preset: "[5, 10, 20]"},
		field{key: "wmins", set: positiveIntsTo(&sweep.Wmins), preset: "[1, 2, 3]"},
		field{key: "scenarios", set: intTo(&sweep.Scenarios, 1, positiveInt), preset: "2"},
		field{key: "trials", set: intTo(&sweep.Trials, 1, positiveInt), preset: "2"},
		field{key: "p", set: intTo(&sweep.P, 1, positiveInt)},
		field{key: "iterations", set: intTo(&sweep.Iterations, 1, positiveInt)},
		field{key: "cap", set: int64To(&sweep.Cap, 1, positiveSlots)},
		field{key: "seed", set: uint64To(&sweep.Seed)},
		field{key: "heuristics", set: namesTo(&sweep.Heuristics, tightsched.Heuristics(),
			"heuristic", "see GET /v1/heuristics")},
		field{key: "models", set: listOf(&sweep.Models, "a list of strings",
			func(v any, path string) (tightsched.AvailabilityModel, *SpecError) {
				name, serr := stringOf(v, path)
				if serr != nil {
					return nil, serr
				}
				model, err := tightsched.ModelByName(name)
				if err != nil {
					return nil, specErr(path, "unknown availability model %q (see GET /v1/models)", name)
				}
				return model, nil
			})},
		field{key: "initialAllUp", set: boolTo(&sweep.InitialAllUp)},
	)
	return sweep, serr
}

// runFromTree parses the runtime block: the knobs that change speed,
// never results, mirroring the option set of the Session campaign entry
// points, and returns the worker count. Version 1 specs may still carry
// run.advance (leap, slot or batch) and run.maxLeap (>= 0), which once
// picked the time-advance core and its macro-step bound; they are
// validated here, at submit time, and otherwise ignored: every campaign
// runs the one production core.
func runFromTree(m map[string]any, spec *Spec) (int, *SpecError) {
	if spec.Grid != nil {
		// The online engine has no core selector, shardable instance grid
		// or cluster lease decomposition; refusing beats silently ignoring.
		for _, key := range []string{"advance", "maxLeap", "shard", "cluster"} {
			if _, ok := m[key]; ok {
				return 0, specErr("run."+key, "does not apply to an online grid campaign")
			}
		}
	}
	workers := 0
	var clusterMap map[string]any
	if serr := decodeBlock(m, "run.", false,
		field{key: "advance", set: func(v any, path string) *SpecError {
			advance, serr := stringOf(v, path)
			if serr == nil && advance != "leap" && advance != "slot" && advance != "batch" {
				serr = specErr(path, "unknown time advance %q (choose leap, slot or batch)", advance)
			}
			return serr
		}},
		field{key: "maxLeap", set: int64To(new(int64), 0, "must be >= 0, got %d")},
		field{key: "workers", set: intTo(&workers, 0, "must be >= 0, got %d")},
		field{key: "journal", set: boolTo(&spec.Journal)},
		field{key: "format", set: func(v any, path string) *SpecError {
			name, serr := stringOf(v, path)
			if serr != nil {
				return serr
			}
			format, err := tightsched.ParseJournalFormat(name)
			if err != nil {
				return specErr(path, "unknown journal format %q (choose jsonl or binary)", name)
			}
			if !spec.Journal {
				return specErr(path, "requires run.journal: true (the format names the journal's encoding)")
			}
			spec.Format = format
			return nil
		}},
		field{key: "shard", set: func(v any, path string) *SpecError {
			s, serr := stringOf(v, path)
			if serr != nil || s == "" {
				return serr
			}
			shard, err := tightsched.ParseSweepShard(s)
			if err != nil {
				return specErr(path, "invalid shard %q (want 0-based \"i/n\" with i < n)", s)
			}
			spec.Shard = shard
			return nil
		}},
		field{key: "cluster", set: mappingTo(&clusterMap)},
	); serr != nil || clusterMap == nil {
		return workers, serr
	}
	cs, serr := clusterFromTree(clusterMap)
	if serr != nil {
		return 0, serr
	}
	// Cluster execution owns the whole grid (the coordinator shards it
	// into lease units itself) and lives on its journal.
	if spec.Shard.Count > 1 {
		return 0, specErr("run.cluster", "incompatible with run.shard (the coordinator decomposes the grid itself)")
	}
	if !spec.Journal {
		return 0, specErr("run.cluster", "requires run.journal: true (the journal is the dedup and completion authority)")
	}
	spec.Cluster = cs
	return workers, nil
}

// setter types one present value of a block into its destination; path
// names the value in error reports.
type setter func(v any, path string) *SpecError

// field is one key of a block's schema table. A missing key is refused
// with need when it is set, or, without a preset profile, with the
// example in preset when that is set; otherwise it keeps its default.
type field struct {
	key    string
	set    setter
	need   string
	preset string
}

// decodeBlock walks one mapping against its schema table. It rejects the
// lexically first unknown key (deterministic, not map order), listing
// the allowed keys in table order — a typo'd or unsupported field must
// never be silently dropped — then the first missing required key, and
// finally calls set on every present key in table order. A nil block has
// no keys.
func decodeBlock(m map[string]any, prefix string, hasPreset bool, fields ...field) *SpecError {
	allowed := make([]string, len(fields))
	for i, f := range fields {
		allowed[i] = f.key
	}
	unknown, found := "", false
	for k := range m {
		if !slices.Contains(allowed, k) && (!found || k < unknown) {
			unknown, found = k, true
		}
	}
	if found {
		return specErr(prefix+unknown, "unknown field (allowed: %s)", strings.Join(allowed, ", "))
	}
	for _, f := range fields {
		if _, ok := m[f.key]; ok {
			continue
		}
		if f.need != "" {
			return specErr(prefix+f.key, "%s", f.need)
		}
		if f.preset != "" && !hasPreset {
			return specErr(prefix+f.key, "required without a preset (e.g. %s); or set preset: quick|full", f.preset)
		}
	}
	for _, f := range fields {
		if v, ok := m[f.key]; ok {
			if serr := f.set(v, prefix+f.key); serr != nil {
				return serr
			}
		}
	}
	return nil
}

// Bound messages shared by the integer setters.
const (
	positiveInt   = "must be a positive integer, got %d"
	positiveSlots = "must be a positive slot count, got %d"
)

// Typed setters. Each refuses an ill-typed value with a path-specific
// SpecError; only mappingTo reads null as absent.

func int64Of(v any, path string) (int64, *SpecError) {
	num, ok := v.(json.Number)
	if !ok {
		return 0, specErr(path, "must be an integer, got %s", describeValue(v))
	}
	n, err := num.Int64()
	if err != nil {
		return 0, specErr(path, "must be an integer, got %s", num)
	}
	return n, nil
}

// int64To types an integer; with a non-empty msg, values below min are
// refused with msg (formatted with the value).
func int64To(dst *int64, min int64, msg string) setter {
	return func(v any, path string) *SpecError {
		n, serr := int64Of(v, path)
		if serr == nil && msg != "" && n < min {
			serr = specErr(path, msg, n)
		}
		*dst = n
		return serr
	}
}

// intTo is int64To for an int destination, refusing overflow.
func intTo(dst *int, min int, msg string) setter {
	return func(v any, path string) *SpecError {
		n, serr := int64Of(v, path)
		switch {
		case serr != nil:
		case int64(int(n)) != n:
			serr = specErr(path, "integer %d overflows", n)
		case msg != "" && int(n) < min:
			serr = specErr(path, msg, n)
		}
		*dst = int(n)
		return serr
	}
}

func uint64To(dst *uint64) setter {
	return func(v any, path string) *SpecError {
		num, ok := v.(json.Number)
		if !ok {
			return specErr(path, "must be a non-negative integer, got %s", describeValue(v))
		}
		n, err := strconv.ParseUint(num.String(), 10, 64)
		if err != nil {
			return specErr(path, "must be a non-negative integer, got %s", num)
		}
		*dst = n
		return nil
	}
}

// floatTo types a number as float64 (integers accepted).
func floatTo(dst *float64) setter {
	return func(v any, path string) *SpecError {
		num, ok := v.(json.Number)
		if !ok {
			return specErr(path, "must be a number, got %s", describeValue(v))
		}
		f, err := num.Float64()
		if err != nil {
			return specErr(path, "must be a number, got %s", num)
		}
		*dst = f
		return nil
	}
}

func stringOf(v any, path string) (string, *SpecError) {
	s, ok := v.(string)
	if !ok {
		return "", specErr(path, "must be a string, got %s", describeValue(v))
	}
	return s, nil
}

func stringTo(dst *string) setter {
	return func(v any, path string) (serr *SpecError) {
		*dst, serr = stringOf(v, path)
		return serr
	}
}

func boolTo(dst *bool) setter {
	return func(v any, path string) *SpecError {
		b, ok := v.(bool)
		if !ok {
			return specErr(path, "must be true or false, got %s", describeValue(v))
		}
		*dst = b
		return nil
	}
}

// mappingTo captures a nested block for its own table; null leaves dst
// nil, so the block counts as absent.
func mappingTo(dst *map[string]any) setter {
	return func(v any, path string) *SpecError {
		if v == nil {
			return nil
		}
		m, ok := v.(map[string]any)
		if !ok {
			return specErr(path, "must be a mapping")
		}
		*dst = m
		return nil
	}
}

// listOf types a non-empty list (what names it in the type error),
// decoding element i with item at path[i].
func listOf[T any](dst *[]T, what string, item func(v any, path string) (T, *SpecError)) setter {
	return func(v any, path string) *SpecError {
		list, ok := v.([]any)
		if !ok {
			return specErr(path, "must be %s, got %s", what, describeValue(v))
		}
		if len(list) == 0 {
			return specErr(path, "must not be empty")
		}
		out := make([]T, len(list))
		for i, x := range list {
			var serr *SpecError
			if out[i], serr = item(x, fmt.Sprintf("%s[%d]", path, i)); serr != nil {
				return serr
			}
		}
		*dst = out
		return nil
	}
}

// itemOf decodes one mapping element of a list (what names it in the
// type error) through the schema table fields returns for it.
func itemOf[T any](what string, fields func(*T) []field) func(v any, path string) (T, *SpecError) {
	return func(v any, path string) (T, *SpecError) {
		var out T
		m, ok := v.(map[string]any)
		if !ok {
			return out, specErr(path, "must be %s, got %s", what, describeValue(v))
		}
		return out, decodeBlock(m, path+".", false, fields(&out)...)
	}
}

func positiveIntsTo(dst *[]int) setter {
	return listOf(dst, "a list of positive integers", func(v any, path string) (int, *SpecError) {
		num, ok := v.(json.Number)
		if !ok {
			return 0, specErr(path, "must be a positive integer, got %s", describeValue(v))
		}
		n, err := num.Int64()
		if err != nil || n <= 0 || int64(int(n)) != n {
			return 0, specErr(path, "must be a positive integer, got %s", num)
		}
		return int(n), nil
	})
}

// namesTo types a list of registry names, refusing one outside known as
// an unknown <what> with a hint where to look.
func namesTo(dst *[]string, known []string, what, hint string) setter {
	return listOf(dst, "a list of strings", func(v any, path string) (string, *SpecError) {
		name, serr := stringOf(v, path)
		if serr == nil && !slices.Contains(known, name) {
			serr = specErr(path, "unknown %s %q (%s)", what, name, hint)
		}
		return name, serr
	})
}

// describeValue names a tree value for error messages.
func describeValue(v any) string {
	switch v := v.(type) {
	case nil:
		return "null"
	case bool:
		return fmt.Sprintf("boolean %v", v)
	case string:
		return fmt.Sprintf("string %q", v)
	case json.Number:
		return "number " + v.String()
	case []any:
		return "a list"
	case map[string]any:
		return "a mapping"
	default:
		return fmt.Sprintf("%T", v)
	}
}

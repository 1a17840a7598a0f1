// Command perfbench is the repository's whole-pipeline benchmark. It runs
// one workload — table1 (quick Table I on the batch core), online (a
// Table IV grid) or journal (JSONL and binary journal append and replay)
// — checks every artifact against pinned SHA-256 digests or a second
// path, and prints the metrics as one JSON line. See README.md.
//
//	perfbench --workload table1 --seed 20130522 --seconds 30 --trace 0
//
// Every measured repetition runs in a fresh child process of this
// binary, so peak RSS, GC state and the registries never carry across
// repetitions, workloads or the traced and untraced twins.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

// workDir holds the children's journals, relative to the directory the
// benchmark runs in.
const workDir = ".bench_build/work"

// minSetups is the number of set-up samples an untraced run takes at
// least, adding set-up-only children when the repetitions are fewer.
const minSetups = 7

// tracePrefix prefixes the registered names of the traced twins.
const tracePrefix = "trace."

//go:embed digests.json
var digestsJSON []byte

func main() {
	var (
		name    = flag.String("workload", "", "workload: table1 | online | journal")
		seed    = flag.Uint64("seed", 20130522, "input seed")
		seconds = flag.Int("seconds", 30, "measurement budget in seconds; repetitions start until it is spent")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics of traced repetitions instead of the end-to-end ones")
		child   = flag.String("child", "", "internal: run one repetition in this process (run | traced | setup)")
		spawn   = flag.Int64("spawn-ns", 0, "internal: the parent's wall clock when it started this child")
	)
	flag.Parse()
	if _, err := newWorkload(*name); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var err error
	if *child != "" {
		err = runChild(*child, *name, *seed, *spawn)
	} else {
		err = orchestrate(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// childResult is one repetition's report, printed by the child as JSON.
type childResult struct {
	SetupS    float64            `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	CPUS      float64            `json:"cpu_s"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Ops       int                `json:"ops"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Artifact  string             `json:"artifact_sha256"`
	Results   string             `json:"results_sha256"`
	Pinned    bool               `json:"pinned"`
	Error     string             `json:"error,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// runChild runs one repetition: set-up, then (unless mode is "setup") the
// measured phase and its checks. A workload error is reported in the
// result, counting its operations as failed; only a failure to report at
// all is returned.
func runChild(mode, name string, seed uint64, spawnNS int64) error {
	w, _ := newWorkload(name)
	var pinned map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &pinned); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var tr *tracer
	if mode == "traced" {
		tr = newTracer(tracePrefix)
	}
	if err := w.setup(seed, dir, tr); err != nil {
		return fmt.Errorf("%s set-up: %w", name, err)
	}
	before := snapshot()
	res := childResult{SetupS: float64(before.at.UnixNano()-spawnNS) / 1e9}
	if mode != "setup" {
		ph := w.run(context.Background())
		after := snapshot()
		res.WallS = after.at.Sub(before.at).Seconds()
		res.CPUS = (after.cpu - before.cpu).Seconds()
		res.PeakRSSMB = float64(after.peakRSSKB) / 1024
		res.Ops, res.Attempted = ph.ops, ph.attempted
		res.Artifact = sha(ph.artifact)
		res.Results = sha(strings.Join(ph.results, "\n"))
		want, ok := pinned[name][strconv.FormatUint(seed, 10)]
		res.Pinned = ok
		if ph.err == nil && ok && want != res.Artifact {
			ph.err = fmt.Errorf("%s artifact digest %s, pinned %s", name, res.Artifact, want)
		}
		if ph.err == nil && tr == nil {
			ph.err = w.verify(ph)
		}
		if ph.err != nil {
			res.Error = ph.err.Error()
			res.Failed = res.Attempted
		}
		if tr != nil {
			res.Layers = layerMetrics(tr, ph, before, after, res.CPUS)
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// layerMetrics assembles a traced repetition's per-layer metrics. Layers
// a workload does not exercise read zero.
func layerMetrics(tr *tracer, ph phase, before, after procSnapshot, cpu float64) map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = ph.layers[d.name]
	}
	m["avail.walk_s"] = tr.availWalk.seconds()
	m["avail.walk_calls"] = float64(tr.availWalk.calls.Load())
	m["avail.slots"] = float64(tr.availSlots.Load())
	m["avail.setup_s"] = tr.availSetup.seconds()
	m["sched.decide_s"] = tr.decide.seconds()
	m["sched.decide_calls"] = float64(tr.decide.calls.Load())
	m["sched.runs"] = float64(tr.runs.Load())
	m["grid.policy_s"] = tr.admission.seconds() + tr.victim.seconds()
	m["grid.policy_calls"] = float64(tr.admission.calls.Load() + tr.victim.calls.Load())
	m["go.gc_cpu_s"] = after.gcCPU - before.gcCPU
	m["go.alloc_mb"] = float64(after.allocBytes-before.allocBytes) / (1 << 20)
	m["go.allocs"] = float64(after.allocObjs - before.allocObjs)
	m["go.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	if m["sched.runs"] > 0 {
		// Derived: the CPU no traced boundary accounts for — span
		// execution, engine bookkeeping and the campaign harness.
		m["sim.rest_cpu_s"] = cpu - m["avail.walk_s"] - m["avail.setup_s"] - m["sched.decide_s"] -
			m["grid.policy_s"] - m["exp.render_s"] - m["go.gc_cpu_s"]
	}
	return m
}

// spawnChild runs one repetition in a fresh process of this binary.
func spawnChild(mode, name string, seed uint64) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	var out bytes.Buffer
	start := time.Now()
	cmd := exec.Command(exe, "--child", mode, "--workload", name,
		"--seed", strconv.FormatUint(seed, 10), "--spawn-ns", strconv.FormatInt(start.UnixNano(), 10))
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("%s child (%s): %w", name, mode, err)
	}
	var res childResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return childResult{}, fmt.Errorf("%s child (%s) report: %w", name, mode, err)
	}
	return res, nil
}

// orchestrate runs untraced repetitions (paired with traced ones when
// traced) until the budget is spent, then prints the metrics.
func orchestrate(name string, seed uint64, budget time.Duration, traced bool) error {
	start := time.Now()
	var plain, twins []childResult
	for len(plain) == 0 || time.Since(start) < budget {
		r, err := spawnChild("run", name, seed)
		if err != nil {
			return err
		}
		plain = append(plain, r)
		report("run", r)
		if traced {
			t, err := spawnChild("traced", name, seed)
			if err != nil {
				return err
			}
			twins = append(twins, t)
			report("traced", t)
		}
	}
	var setups []float64
	for _, r := range plain {
		setups = append(setups, r.SetupS)
	}
	for !traced && len(setups) < minSetups {
		r, err := spawnChild("setup", name, seed)
		if err != nil {
			return err
		}
		setups = append(setups, r.SetupS)
	}

	out := result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range slices.Concat(plain, twins) {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		if r.Error != "" {
			out.Correct = false
		}
	}
	for _, t := range twins {
		if t.Results != plain[0].Results || t.Artifact != plain[0].Artifact {
			out.Correct = false
			out.Failed += t.Attempted
			fmt.Fprintf(os.Stderr, "perfbench: traced %s results differ from the untraced run's\n", name)
		}
	}
	wall := median(pick(plain, func(r childResult) float64 { return r.WallS }))
	if traced {
		for _, d := range perLayer {
			v := median(pick(twins, func(r childResult) float64 { return r.Layers[d.name] }))
			out.Metrics[d.name] = metric{v, d.unit}
		}
		tracedWall := median(pick(twins, func(r childResult) float64 { return r.WallS }))
		out.Metrics["trace.overhead_s"] = metric{tracedWall - wall, "s"}
	} else {
		out.Metrics["setup_s"] = metric{median(setups), "s"}
		out.Metrics["wall_s"] = metric{wall, "s"}
		out.Metrics["cpu_s"] = metric{median(pick(plain, func(r childResult) float64 { return r.CPUS })), "s"}
		out.Metrics["peak_rss_mb"] = metric{median(pick(plain, func(r childResult) float64 { return r.PeakRSSMB })), "MB"}
		out.Metrics["ops_per_s"] = metric{median(pick(plain, func(r childResult) float64 { return float64(r.Ops) / r.WallS })), "1/s"}
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// report logs one repetition to stderr.
func report(mode string, r childResult) {
	status := "ok"
	switch {
	case r.Error != "":
		status = "FAILED: " + r.Error
	case !r.Pinned:
		status = "ok (seed not pinned; checked by replay)"
	}
	fmt.Fprintf(os.Stderr, "%-6s setup %.4fs wall %.3fs cpu %.3fs rss %.1fMB ops %d artifact %.12s %s\n",
		mode, r.SetupS, r.WallS, r.CPUS, r.PeakRSSMB, r.Ops, r.Artifact, status)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// perLayer lists the traced run's metrics, in BENCHMARK.json's order
// (trace.overhead_s, computed by the parent, closes the list there).
var perLayer = []metricDef{
	{"avail.walk_s", "s"}, {"avail.walk_calls", "count"}, {"avail.slots", "count"}, {"avail.setup_s", "s"},
	{"sched.decide_s", "s"}, {"sched.decide_calls", "count"}, {"sched.runs", "count"},
	{"sched.share_hits", "count"}, {"sched.share_misses", "count"}, {"sched.share_hit_ratio", "ratio"}, {"sched.share_classes_max", "count"},
	{"analytic.memo_hits", "count"}, {"analytic.memo_misses", "count"}, {"analytic.memo_hit_ratio", "ratio"}, {"analytic.memo_entries_max", "count"},
	{"sim.rest_cpu_s", "s"}, {"sim.cells", "count"},
	{"exp.events", "count"}, {"exp.wait_s", "s"}, {"exp.append_jsonl_s", "s"}, {"exp.append_binary_s", "s"}, {"exp.appends", "count"},
	{"exp.replay_jsonl_s", "s"}, {"exp.replay_binary_s", "s"}, {"exp.render_s", "s"},
	{"grid.policy_s", "s"}, {"grid.policy_calls", "count"}, {"grid.evictions", "count"}, {"grid.useful_run_ratio", "ratio"},
	{"go.gc_cpu_s", "s"}, {"go.alloc_mb", "MB"}, {"go.allocs", "count"}, {"go.gc_cycles", "count"},
}

func pick(rs []childResult, f func(childResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

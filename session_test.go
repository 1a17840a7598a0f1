// Tests for the context-aware Session API: cancellation semantics
// (cancel mid-campaign, resume bit-identically), the typed event stream
// and its shutdown guarantees, pinned results of the functional-option
// entry points, and the open heuristic/model registries driven from
// outside internal/sched and internal/avail.
package tightsched_test

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tightsched"
	"tightsched/internal/app"
	"tightsched/internal/exp"
	"tightsched/internal/markov"
	"tightsched/internal/sched"
	"tightsched/internal/stats"
)

// sessionSweep is a small campaign preserving the Section VII shape.
func sessionSweep(m int, heuristics []string) tightsched.Sweep {
	s := tightsched.QuickSweep(m)
	s.Ncoms = []int{10}
	s.Wmins = []int{1, 2}
	s.Scenarios = 1
	s.Trials = 2
	s.Cap = 50_000
	s.Heuristics = heuristics
	return s
}

// renderTables renders every table artifact the sweep supports: the
// Table I/II layout always, plus the per-model Table III slices when the
// campaign has a model axis.
func renderTables(t *testing.T, res *tightsched.SweepResult) string {
	t.Helper()
	rows, err := res.Table(tightsched.ReferenceHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	out := tightsched.FormatTable(rows)
	if models := res.Models(); len(models) > 1 {
		tabs, err := res.TableIII(tightsched.ReferenceHeuristic)
		if err != nil {
			t.Fatal(err)
		}
		out += tightsched.FormatTableIII(tabs)
	}
	return out
}

// cancelResume runs the sweep uninterrupted, then journaled with the
// context cancelled partway through, then resumes from the journal alone,
// and requires the resumed tables to be byte-identical to the
// uninterrupted ones.
func cancelResume(t *testing.T, sweep tightsched.Sweep) {
	t.Helper()
	ctx := context.Background()
	session := tightsched.NewSession()

	full, err := session.RunSweep(ctx, sweep)
	if err != nil {
		t.Fatal(err)
	}
	refTables := renderTables(t, full)

	// The interrupted run: two workers so completions trickle, a
	// progress hook that pulls the plug a third of the way in.
	path := filepath.Join(t.TempDir(), "cancelled.journal")
	j, err := tightsched.CreateSweepJournal(path, sweep, tightsched.SweepShard{})
	if err != nil {
		t.Fatal(err)
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	limit := len(full.Instances) / 3
	if limit == 0 {
		limit = 1
	}
	_, err = session.RunSweep(runCtx, sweep,
		tightsched.WithWorkers(2),
		tightsched.WithJournal(j),
		tightsched.WithProgress(func(done, total int) {
			if done >= limit {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}
	journaled := j.DoneCount()
	if journaled < limit || journaled >= len(full.Instances) {
		t.Fatalf("journal holds %d instances after cancel, want in [%d, %d)", journaled, limit, len(full.Instances))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume from the file alone: recorded instances replay, the rest
	// re-run from coordinate-derived seeds. WithWorkers applies to a
	// resume too (the journal spec omits runtime knobs), and a bounded
	// pool must not change results.
	res, err := session.ResumeSweep(ctx, path, tightsched.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != len(full.Instances) {
		t.Fatalf("resumed campaign has %d instances, want %d", len(res.Instances), len(full.Instances))
	}
	for i := range res.Instances {
		if res.Instances[i] != full.Instances[i] {
			t.Fatalf("instance %d differs after cancel+resume:\n%+v\n%+v", i, res.Instances[i], full.Instances[i])
		}
	}
	if got := renderTables(t, res); got != refTables {
		t.Fatalf("tables differ after cancel+resume:\n--- uninterrupted\n%s--- resumed\n%s", refTables, got)
	}
}

// TestCancelResumeByteIdentical is the acceptance path: a campaign
// started via the Session API, cancelled via context mid-run, and resumed
// from its journal produces byte-identical Table I/II/III output to an
// uninterrupted run. The m=5 campaign carries a two-model axis (Markov +
// the built-in semi-Markov), covering the Table I and Table III layouts;
// the m=10 campaign covers Table II's.
func TestCancelResumeByteIdentical(t *testing.T) {
	t.Run("m5-multimodel", func(t *testing.T) {
		sweep := sessionSweep(5, []string{"IE", "Y-IE", "RANDOM"})
		markovModel, err := tightsched.ModelByName("markov")
		if err != nil {
			t.Fatal(err)
		}
		semi, err := tightsched.ModelByName("semimarkov")
		if err != nil {
			t.Fatal(err)
		}
		sweep.Models = []tightsched.AvailabilityModel{markovModel, semi}
		cancelResume(t, sweep)
	})
	t.Run("m10", func(t *testing.T) {
		cancelResume(t, sessionSweep(10, []string{"IE", "Y-IE", "IAY", "RANDOM"}))
	})
}

// TestSessionRunCancelled: a cancelled context stops a single simulation
// at a slot boundary with the context's error.
func TestSessionRunCancelled(t *testing.T) {
	sc := tightsched.PaperScenario(5, 10, 2, 42)
	session := tightsched.NewSession()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := session.Run(ctx, sc, "IE"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run returned %v, want context.Canceled", err)
	}
	if _, err := session.Compare(ctx, sc, []string{"IE"}, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Compare returned %v, want context.Canceled", err)
	}
	if _, err := session.Estimate(ctx, sc, []int{0, 1}, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Estimate returned %v, want context.Canceled", err)
	}
}

// TestSessionOptionParity: the functional-option path reproduces, field
// for field, the results the struct-options entry points gave before
// they were removed — pinned Run results and Compare summaries, so
// Compare's per-trial seed derivation (trial i runs under the seed keyed
// by (base seed, i)) cannot drift.
func TestSessionOptionParity(t *testing.T) {
	ctx := context.Background()
	sc := tightsched.PaperScenario(5, 10, 2, 11)
	session := tightsched.NewSession(tightsched.WithCap(200_000))
	runs := []struct {
		seed uint64
		want tightsched.Result
	}{
		{1, tightsched.Result{Heuristic: "IE", Completed: 10, Makespan: 667, Restarts: 18, CommSlots: 422, ComputeSlots: 313}},
		{7, tightsched.Result{Heuristic: "IE", Completed: 10, Makespan: 337, Restarts: 9, CommSlots: 272, ComputeSlots: 104}},
		{1, tightsched.Result{Heuristic: "Y-IE", Completed: 10, Makespan: 622, Reconfigs: 12, Restarts: 18, CommSlots: 460, ComputeSlots: 257}},
		{7, tightsched.Result{Heuristic: "Y-IE", Completed: 10, Makespan: 432, Reconfigs: 10, Restarts: 13, CommSlots: 337, ComputeSlots: 154}},
		{1, tightsched.Result{Heuristic: "RANDOM", Completed: 10, Makespan: 4400, Restarts: 303, CommSlots: 6035, ComputeSlots: 729}},
		{7, tightsched.Result{Heuristic: "RANDOM", Completed: 10, Makespan: 2628, Restarts: 193, CommSlots: 4070, ComputeSlots: 476}},
	}
	for _, r := range runs {
		got, err := session.Run(ctx, sc, r.want.Heuristic, tightsched.WithSeed(r.seed))
		if err != nil {
			t.Fatal(err)
		}
		if got != r.want {
			t.Fatalf("%s seed %d: got %+v, want %+v", r.want.Heuristic, r.seed, got, r.want)
		}
	}

	want := []tightsched.HeuristicSummary{
		{Heuristic: "IE", Makespan: stats.Summary{N: 3, Mean: 396.3333333333333, Stdev: 97.32591295915662, Min: 286, Median: 433, Max: 470},
			MeanRestarts: 5.666666666666667},
		{Heuristic: "Y-IE", Makespan: stats.Summary{N: 3, Mean: 356.3333333333333, Stdev: 101.31798129322027, Min: 241, Median: 397, Max: 431},
			MeanRestarts: 3.3333333333333335, MeanReconfigs: 4.333333333333333},
	}
	sums, err := session.Compare(ctx, sc, []string{"IE", "Y-IE"}, 3,
		tightsched.WithSeed(5), tightsched.WithCap(100_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != len(want) {
		t.Fatalf("got %d summaries, want %d", len(sums), len(want))
	}
	for i := range want {
		if sums[i] != want[i] {
			t.Fatalf("summary %d: got %+v, want %+v", i, sums[i], want[i])
		}
	}
}

// TestSessionOptionScope: a per-call option outside the entry point's
// scope is an error, not a silent no-op; session-level options may mix
// scopes and apply where meaningful.
func TestSessionOptionScope(t *testing.T) {
	ctx := context.Background()
	sc := tightsched.PaperScenario(5, 10, 2, 42)
	sweep := sessionSweep(5, []string{"IE"})
	session := tightsched.NewSession()

	if _, err := session.Run(ctx, sc, "IE", tightsched.WithWorkers(2)); err == nil {
		t.Fatal("Run accepted the campaign option WithWorkers")
	}
	if _, err := session.RunSweep(ctx, sweep, tightsched.WithWorkers(-1)); err == nil ||
		!strings.Contains(err.Error(), "WithWorkers") {
		t.Fatalf("RunSweep accepted WithWorkers(-1) (err=%v)", err)
	}
	if _, err := session.Compare(ctx, sc, []string{"IE"}, 1, tightsched.WithDiscardInstances()); err == nil {
		t.Fatal("Compare accepted the campaign option WithDiscardInstances")
	}
	if _, err := session.RunSweep(ctx, sweep, tightsched.WithCap(1)); err == nil {
		t.Fatal("RunSweep accepted the simulation option WithCap")
	}
	var streamErr error
	for _, err := range session.Stream(ctx, sweep, tightsched.WithSeed(1)) {
		if err != nil {
			streamErr = err
		}
	}
	if streamErr == nil {
		t.Fatal("Stream accepted the simulation option WithSeed")
	}
	if _, err := session.ResumeSweep(ctx, "/nonexistent", tightsched.WithModel(tightsched.MarkovModel{})); err == nil ||
		!strings.Contains(err.Error(), "WithModel") {
		t.Fatalf("ResumeSweep scope error = %v, want a WithModel complaint", err)
	}

	// Entry points reject even same-family options they cannot honor:
	// Compare has no single trace, Stream delivers events itself, and
	// ResumeSweep reads journal and shard from the file.
	if _, err := session.Compare(ctx, sc, []string{"IE"}, 1, tightsched.WithRecorder(&tightsched.Recorder{})); err == nil {
		t.Fatal("Compare accepted WithRecorder, which it silently drops")
	}
	var progressErr error
	for _, err := range session.Stream(ctx, sweep, tightsched.WithProgress(func(int, int) {})) {
		if err != nil {
			progressErr = err
		}
	}
	if progressErr == nil {
		t.Fatal("Stream accepted WithProgress, which it never invokes")
	}
	shard, err := tightsched.ParseSweepShard("0/2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := session.ResumeSweep(ctx, "/nonexistent", tightsched.WithShard(shard)); err == nil ||
		!strings.Contains(err.Error(), "WithShard") {
		t.Fatalf("ResumeSweep scope error = %v, want a WithShard complaint", err)
	}

	// Mixed-scope options at session level are fine: each call picks up
	// what applies to it.
	mixed := tightsched.NewSession(tightsched.WithCap(100_000), tightsched.WithWorkers(1))
	if _, err := mixed.Run(ctx, sc, "IE", tightsched.WithSeed(7)); err != nil {
		t.Fatalf("mixed session Run: %v", err)
	}
	if _, err := mixed.RunSweep(ctx, sweep); err != nil {
		t.Fatalf("mixed session RunSweep: %v", err)
	}
}

// TestSessionStreamEvents pins the event-stream contract on a complete
// run: one InstanceDone per instance with monotonically increasing
// counters, one PointDone per (model, point) cell, a Progress event after
// every live instance, and a final Completed == Total.
func TestSessionStreamEvents(t *testing.T) {
	sweep := sessionSweep(5, []string{"IE", "RANDOM"})
	session := tightsched.NewSession()
	total := sweep.InstanceCount() * 2
	points := len(sweep.Ncoms) * len(sweep.Wmins) * sweep.Scenarios

	instances, pointsDone, progresses, lastCompleted := 0, 0, 0, 0
	for ev, err := range session.Stream(context.Background(), sweep) {
		if err != nil {
			t.Fatal(err)
		}
		switch ev := ev.(type) {
		case tightsched.InstanceDone:
			instances++
			if ev.Replayed {
				t.Fatal("journal-less run yielded a replayed instance")
			}
			if ev.Completed != lastCompleted+1 || ev.Total != total {
				t.Fatalf("instance counters %d/%d after %d", ev.Completed, ev.Total, lastCompleted)
			}
			lastCompleted = ev.Completed
		case tightsched.PointDone:
			pointsDone++
			if ev.TotalPoints != points {
				t.Fatalf("point total %d, want %d", ev.TotalPoints, points)
			}
		case tightsched.Progress:
			progresses++
		}
	}
	if instances != total || pointsDone != points || progresses != total {
		t.Fatalf("saw %d instances, %d points, %d progress events; want %d, %d, %d",
			instances, pointsDone, progresses, total, points, total)
	}
	if lastCompleted != total {
		t.Fatalf("final completion %d, want %d", lastCompleted, total)
	}
}

// waitForGoroutines polls until the goroutine count settles back to the
// baseline (with scheduling slack), failing the test otherwise.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamShutdownNoLeak: breaking out of a Stream, and cancelling its
// context mid-flight, must both wind the worker pool down completely —
// run under -race in CI, this doubles as the pool's shutdown race test.
func TestStreamShutdownNoLeak(t *testing.T) {
	sweep := sessionSweep(5, []string{"IE", "Y-IE", "RANDOM"})
	sweep.Workers = 4
	session := tightsched.NewSession()
	base := runtime.NumGoroutine()

	// Consumer break after the first instance.
	for ev, err := range session.Stream(context.Background(), sweep) {
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := ev.(tightsched.InstanceDone); ok {
			break
		}
	}
	waitForGoroutines(t, base)

	// External cancellation mid-consumption: the stream must end with
	// context.Canceled and the pool must drain.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var streamErr error
	seen := 0
	for ev, err := range session.Stream(ctx, sweep) {
		if err != nil {
			streamErr = err
			continue
		}
		if _, ok := ev.(tightsched.InstanceDone); ok {
			seen++
			if seen == 2 {
				cancel()
			}
		}
	}
	if !errors.Is(streamErr, context.Canceled) {
		t.Fatalf("cancelled stream ended with %v, want context.Canceled", streamErr)
	}
	waitForGoroutines(t, base)
}

// firstFit is the registry acceptance heuristic: passive, assigning the m
// tasks to UP workers in increasing index order within capacities. It
// lives entirely outside internal/sched.
type firstFit struct{ env *sched.Env }

func (h *firstFit) Name() string { return "FIRSTFIT" }

func (h *firstFit) Decide(v *sched.View) app.Assignment {
	if v.Current != nil {
		return v.Current
	}
	asg := make(app.Assignment, h.env.Platform.Size())
	left := h.env.App.Tasks
	for q, s := range v.States {
		if s != markov.Up {
			continue
		}
		for left > 0 && asg[q] < h.env.Platform.Procs[q].Capacity {
			asg[q]++
			left--
		}
		if left == 0 {
			return asg
		}
	}
	return nil
}

var registerFirstFit = sync.OnceValue(func() error {
	return tightsched.RegisterHeuristic("FIRSTFIT",
		func(env *tightsched.HeuristicEnv) (tightsched.Heuristic, error) {
			return &firstFit{env: env}, nil
		})
})

// TestRegisteredHeuristicEndToEnd is the open-registry acceptance path: a
// heuristic registered from outside internal/sched runs through Run,
// Compare and a sweep axis, and shows up in the name listing.
func TestRegisteredHeuristicEndToEnd(t *testing.T) {
	if err := registerFirstFit(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range tightsched.Heuristics() {
		if name == "FIRSTFIT" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered heuristic missing from Heuristics()")
	}

	ctx := context.Background()
	session := tightsched.NewSession(tightsched.WithCap(100_000))
	sc := tightsched.PaperScenario(5, 10, 2, 42)

	res, err := session.Run(ctx, sc, "FIRSTFIT", tightsched.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed || res.Completed != sc.App.Iterations {
		t.Fatalf("FIRSTFIT run: %+v", res)
	}

	sums, err := session.Compare(ctx, sc, []string{"FIRSTFIT", "IE"}, 2, tightsched.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 || sums[0].Heuristic != "FIRSTFIT" {
		t.Fatalf("Compare summaries: %+v", sums)
	}

	sweep := sessionSweep(5, []string{"FIRSTFIT", "IE"})
	swRes, err := session.RunSweep(ctx, sweep)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, inst := range swRes.Instances {
		if inst.Heuristic == "FIRSTFIT" {
			seen++
		}
	}
	if seen != sweep.InstanceCount() {
		t.Fatalf("sweep ran FIRSTFIT %d times, want %d", seen, sweep.InstanceCount())
	}
}

// renamedMarkov is a registry-test model: the paper's chains under a
// distinct registered name.
type renamedMarkov struct{ tightsched.MarkovModel }

func (renamedMarkov) Name() string { return "testmarkov" }

var registerTestModel = sync.OnceValue(func() error {
	return tightsched.RegisterModel("testmarkov",
		func() tightsched.AvailabilityModel { return renamedMarkov{} })
})

// TestRegisteredModelEndToEnd: a model registered from outside
// internal/avail resolves by name, serves as a sweep axis, and — because
// journal headers record models by name — resumes headlessly.
func TestRegisteredModelEndToEnd(t *testing.T) {
	if err := registerTestModel(); err != nil {
		t.Fatal(err)
	}
	m, err := tightsched.ModelByName("testmarkov")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "testmarkov" {
		t.Fatalf("ModelByName name %q", m.Name())
	}
	found := false
	for _, name := range tightsched.AvailabilityModels() {
		if name == "testmarkov" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered model missing from AvailabilityModels()")
	}

	sweep := sessionSweep(5, []string{"IE", "RANDOM"})
	sweep.Models = []tightsched.AvailabilityModel{m}
	session := tightsched.NewSession()
	ctx := context.Background()

	path := filepath.Join(t.TempDir(), "custom-model.journal")
	j, err := tightsched.CreateSweepJournal(path, sweep, tightsched.SweepShard{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := session.RunSweep(ctx, sweep, tightsched.WithJournal(j))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Headless resume re-resolves "testmarkov" through the registry.
	res, err := session.ResumeSweep(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != len(full.Instances) {
		t.Fatalf("replayed %d instances, want %d", len(res.Instances), len(full.Instances))
	}
	for _, inst := range res.Instances {
		if inst.Model != "testmarkov" {
			t.Fatalf("instance model %q", inst.Model)
		}
	}
}

// TestAvailabilityModelsDefensiveCopy: the name listing is sorted and
// detached from registry state.
func TestAvailabilityModelsDefensiveCopy(t *testing.T) {
	names := tightsched.AvailabilityModels()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("AvailabilityModels() not sorted: %v", names)
		}
	}
	names[0] = "SCRIBBLED"
	if tightsched.AvailabilityModels()[0] == "SCRIBBLED" {
		t.Fatal("AvailabilityModels() aliases registry state")
	}
}

// TestSweepObserver: the RunSweep family delivers typed events to
// a registered Observer, matching the instance count exactly.
type countingObserver struct {
	instances, points, progresses int
	lastDone                      int
}

func (o *countingObserver) OnInstanceDone(ev tightsched.InstanceDone) { o.instances++ }
func (o *countingObserver) OnPointDone(ev tightsched.PointDone)       { o.points++ }
func (o *countingObserver) OnProgress(ev tightsched.Progress) {
	o.progresses++
	o.lastDone = ev.Completed
}

func TestSweepObserver(t *testing.T) {
	sweep := sessionSweep(5, []string{"IE", "RANDOM"})
	session := tightsched.NewSession()
	obs := &countingObserver{}
	res, err := session.RunSweep(context.Background(), sweep, tightsched.WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	total := len(res.Instances)
	points := len(sweep.Ncoms) * len(sweep.Wmins) * sweep.Scenarios
	if obs.instances != total || obs.points != points || obs.lastDone != total {
		t.Fatalf("observer saw %d instances, %d points, last progress %d; want %d, %d, %d",
			obs.instances, obs.points, obs.lastDone, total, points, total)
	}
}

// TestStreamReplayEvents: a resume-style stream replays journaled
// instances as Replayed InstanceDone events followed by one summary
// Progress, then runs only the remainder live.
func TestStreamReplayEvents(t *testing.T) {
	sweep := sessionSweep(5, []string{"IE", "RANDOM"})
	session := tightsched.NewSession()
	ctx := context.Background()

	// Journal only shard 0/2, then stream the whole campaign against the
	// journal: shard-0 instances replay, shard-1 instances run live.
	shard, err := tightsched.ParseSweepShard("0/2")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "half.journal")
	j, err := tightsched.CreateSweepJournal(path, sweep, shard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := session.RunSweep(ctx, sweep, tightsched.WithJournal(j), tightsched.WithShard(shard)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := tightsched.OpenSweepJournal(path)
	if err == nil {
		// A whole-campaign run cannot reuse a shard journal; expected.
		_, err = session.RunSweep(ctx, sweep, tightsched.WithJournal(j2))
		j2.Close()
	}
	if err == nil {
		t.Fatal("whole-campaign run accepted a shard journal")
	}

	// The legitimate path: resume the shard journal itself; every
	// instance replays, exp.Stream semantics verified via the observer.
	obs := &countingObserver{}
	res, err := session.ResumeSweep(ctx, path, tightsched.WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	if obs.instances != len(res.Instances) || obs.progresses != 1 {
		t.Fatalf("pure replay delivered %d instance events and %d progress events, want %d and 1",
			obs.instances, obs.progresses, len(res.Instances))
	}

	// Even a pure replay honors cancellation: a cancelled campaign must
	// never masquerade as a completed one.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := session.ResumeSweep(cancelled, path); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pure replay returned %v, want context.Canceled", err)
	}
}

// TestStreamUnknownHeuristicError: stream-level validation surfaces as
// the iterator's error value, not a panic.
func TestStreamUnknownHeuristicError(t *testing.T) {
	sweep := sessionSweep(5, []string{"NO-SUCH"})
	session := tightsched.NewSession()
	var got error
	for _, err := range session.Stream(context.Background(), sweep) {
		if err != nil {
			got = err
		}
	}
	if got == nil {
		t.Fatal("unknown heuristic accepted by Stream")
	}
	// The exp layer rejects it before any goroutine spawns.
	if _, err := exp.Run(context.Background(), sweep, exp.RunOptions{}); err == nil {
		t.Fatal("unknown heuristic accepted by Run")
	}
}

// TestSessionTimeAdvanceValidation: an out-of-range WithTimeAdvance value
// is rejected when the entry point runs — per-call or session-level — and
// the batch core runs solo through the session surface, byte-identical to
// the default engine.
func TestSessionTimeAdvanceValidation(t *testing.T) {
	ctx := context.Background()
	sc := tightsched.PaperScenario(5, 10, 2, 42)
	session := tightsched.NewSession()

	bad := tightsched.TimeAdvance(99)
	if _, err := session.Run(ctx, sc, "IE", tightsched.WithTimeAdvance(bad)); err == nil ||
		!strings.Contains(err.Error(), "WithTimeAdvance") {
		t.Fatalf("Run accepted an out-of-range time advance (err=%v)", err)
	}
	badSession := tightsched.NewSession(tightsched.WithTimeAdvance(bad))
	if _, err := badSession.Run(ctx, sc, "IE"); err == nil {
		t.Fatal("session-level out-of-range time advance accepted")
	}

	leap, err := session.Run(ctx, sc, "IE", tightsched.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := session.Run(ctx, sc, "IE", tightsched.WithSeed(3),
		tightsched.WithTimeAdvance(tightsched.AdvanceBatch))
	if err != nil {
		t.Fatal(err)
	}
	if leap != batch {
		t.Fatalf("solo batch result %+v != leap %+v", batch, leap)
	}
}

// onlineSessionSweep shrinks the quick online campaign to test scale:
// one arrival process, two policies per axis, a single short trial.
func onlineSessionSweep() tightsched.OnlineSweep {
	g := tightsched.QuickOnlineSweep()
	g.Horizon = 5_000
	g.Trials = 1
	g.Arrivals = []tightsched.OnlineArrival{g.Arrivals[1]} // the recorded trace
	g.Admissions = []string{"fcfs", "edf"}
	g.Preemptions = []string{"none"}
	return g
}

// TestSessionOnlineOptionScope extends the scope contract to the online
// entry points: RunOnline rejects simulation/offline-campaign options,
// and ResumeOnline rejects a journal option — the file is the journal.
func TestSessionOnlineOptionScope(t *testing.T) {
	ctx := context.Background()
	session := tightsched.NewSession()

	if _, err := session.RunOnline(ctx, onlineSessionSweep(), tightsched.WithCap(1)); err == nil ||
		!strings.Contains(err.Error(), "WithCap") {
		t.Fatalf("RunOnline scope error = %v, want a WithCap complaint", err)
	}
	if _, err := session.RunOnline(ctx, onlineSessionSweep(), tightsched.WithRecorder(&tightsched.Recorder{})); err == nil ||
		!strings.Contains(err.Error(), "WithRecorder") {
		t.Fatalf("RunOnline scope error = %v, want a WithRecorder complaint", err)
	}
	if _, err := session.ResumeOnline(ctx, "/nonexistent", tightsched.WithOnlineJournal(nil)); err == nil ||
		!strings.Contains(err.Error(), "WithOnlineJournal") {
		t.Fatalf("ResumeOnline scope error = %v, want a WithOnlineJournal complaint", err)
	}
}

// TestSessionRunOnline exercises the online entry point end to end: the
// sweep's axes are the ones that run, progress fires per instance, and
// cancel + ResumeOnline reproduces the uninterrupted bytes (the CLI
// -resume path in library form).
func TestSessionRunOnline(t *testing.T) {
	ctx := context.Background()
	g := onlineSessionSweep()
	g.Admissions = []string{"sjf"}
	g.Preemptions = []string{"none", "lowest-priority"}
	session := tightsched.NewSession()

	var progress [][2]int
	res, err := session.RunOnline(ctx, g,
		tightsched.WithProgress(func(done, total int) { progress = append(progress, [2]int{done, total}) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Grid.Instances) != 2 { // 1 arrival x 1 admission x 2 preemptions x 1 trial
		t.Fatalf("campaign produced %d instances, want 2", len(res.Grid.Instances))
	}
	for _, in := range res.Grid.Instances {
		if in.Admission != "sjf" {
			t.Fatalf("instance ran admission %q, want the sweep's sjf", in.Admission)
		}
	}
	if len(progress) == 0 || progress[len(progress)-1] != [2]int{2, 2} {
		t.Fatalf("progress events = %v, want a final 2/2", progress)
	}
	want, err := tightsched.RenderTableArtifact(res, 4)
	if err != nil {
		t.Fatal(err)
	}

	// Journal + cancel mid-campaign, then resume byte-identically. The
	// cancel point is an event-loop call, not a progress callback: the
	// single worker runs the campaign's jobs in order, so the first
	// instance's telemetry call count (measured on its own) locates the
	// first call of the second instance, and cancelling there stops that
	// instance whatever the goroutine schedule.
	first := &hookTelemetry{}
	firstJob := onlineGridFromResult(res)
	firstJob.Preemptions = []string{"none"} // the first job alone
	if _, err := session.RunOnline(ctx, firstJob,
		tightsched.WithWorkers(1),
		tightsched.WithGridTelemetry(first),
	); err != nil {
		t.Fatal(err)
	}
	firstCalls := first.calls.Load()
	if firstCalls == 0 {
		t.Fatal("the first instance made no telemetry calls")
	}

	path := filepath.Join(t.TempDir(), "grid.journal")
	j, err := tightsched.CreateOnlineJournal(path, onlineGridFromResult(res))
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	var progressed []int
	_, err = session.RunOnline(cctx, onlineGridFromResult(res),
		tightsched.WithOnlineJournal(j),
		tightsched.WithWorkers(1),
		tightsched.WithGridTelemetry(&hookTelemetry{onCall: func(n int64) {
			if n == firstCalls+1 {
				cancel()
			}
		}}),
		tightsched.WithProgress(func(done, total int) { progressed = append(progressed, done) }),
	)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunOnline returned %v, want context.Canceled", err)
	}
	if got := progressed[len(progressed)-1]; got != 1 {
		t.Fatalf("cancelled campaign journaled %d instances, want exactly the first", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	resumed, err := session.ResumeOnline(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tightsched.RenderTableArtifact(resumed, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("resumed Table IV differs:\n--- resumed ---\n%s--- want ---\n%s", got, want)
	}
}

// hookTelemetry is a GridTelemetry that counts the calls the online
// event loops make into it, running onCall (when set) with each call's
// 1-based index on the calling goroutine.
type hookTelemetry struct {
	calls  atomic.Int64
	onCall func(n int64)
}

func (h *hookTelemetry) call() {
	n := h.calls.Add(1)
	if h.onCall != nil {
		h.onCall(n)
	}
}

func (h *hookTelemetry) GridQueued(int)    { h.call() }
func (h *hookTelemetry) GridRunning(int)   { h.call() }
func (h *hookTelemetry) GridDeadlineMiss() { h.call() }

// onlineGridFromResult rebuilds the exact campaign a result ran, for
// journaling it again.
func onlineGridFromResult(res *tightsched.SweepResult) tightsched.OnlineSweep {
	return res.Grid.Sweep
}

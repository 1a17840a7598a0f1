package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"tightsched/internal/app"
	"tightsched/internal/avail"
	"tightsched/internal/rng"
	"tightsched/internal/sched"
	"tightsched/internal/trace"
)

// This file is the differential harness pinning the lockstep batch core
// to the slot-stepped reference: every instance of a multi-instance
// RunBatch — heuristics sharing decision equivalence classes, trials
// sharing availability walks — must reproduce the exact Result and trace
// of a solo slot-advance run of the equivalent Config, for scripted and
// Markov availability, semi-Markov and sojourn models, and custom
// non-SpanDecider heuristics.

// runBatchAgainstSlot runs every instance of one cell twice — jointly
// through one RunBatch and solo under the slot reference — and asserts
// each instance's Result and trace are identical.
func runBatchAgainstSlot(t *testing.T, label string, base Config, insts []BatchInstance) {
	t.Helper()
	recs := make([]*trace.Recorder, len(insts))
	batch := make([]BatchInstance, len(insts))
	for i, in := range insts {
		recs[i] = &trace.Recorder{}
		in.Recorder = recs[i]
		batch[i] = in
	}
	results, _, err := RunBatch(context.Background(), base, batch)
	if err != nil {
		t.Fatalf("%s: batch: %v", label, err)
	}
	for i, in := range insts {
		recSlot := &trace.Recorder{}
		cfg := base
		cfg.Heuristic = in.Heuristic
		cfg.Custom = in.Custom
		cfg.Seed = in.Seed
		cfg.Recorder = recSlot
		cfg.Advance = AdvanceSlot
		resSlot, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: slot %s: %v", label, in.Heuristic, err)
		}
		name := in.Heuristic
		if name == "" {
			name = "custom"
		}
		assertIdentical(t, fmt.Sprintf("%s inst=%d %s seed=%d", label, i, name, in.Seed),
			resSlot, results[i], recSlot, recs[i])
	}
}

// cell builds the cross product of heuristics and seeds as one batch —
// the shape a sweep cell dispatches.
func cell(heuristics []string, seeds []uint64) []BatchInstance {
	var insts []BatchInstance
	for _, s := range seeds {
		for _, h := range heuristics {
			insts = append(insts, BatchInstance{Heuristic: h, Seed: s})
		}
	}
	return insts
}

// TestBatchVsSlotScriptedFuzz: randomized scripts, every heuristic class
// batched together (cache-sharing incrementals, proactives, RANDOM and
// static ranks which bypass the decision cache), several max-leap caps.
func TestBatchVsSlotScriptedFuzz(t *testing.T) {
	heuristics := []string{"IE", "IAY", "Y-IE", "P-IP", "E-IY", "RANDOM", "FASTEST"}
	stream := rng.New(0xba7c)
	for trial := 0; trial < 8; trial++ {
		p := 3 + stream.IntN(5)
		stay := 0.5 + 0.45*stream.Float64()
		script := randomScript(stream, p, 200+stream.IntN(400), stay)
		pl := testPlatform(uint64(2000+trial), p, 1+stream.IntN(3), 1)
		application := app.Application{
			Tasks:      1 + stream.IntN(p),
			Tprog:      stream.IntN(6),
			Tdata:      stream.IntN(4),
			Iterations: 1 + stream.IntN(4),
		}
		for _, maxLeap := range []int64{0, 7} {
			base := Config{
				Platform: pl,
				App:      application,
				Cap:      5_000,
				Provider: &ScriptProvider{Script: script},
				maxLeap:  maxLeap,
			}
			label := fmt.Sprintf("script trial=%d maxleap=%d", trial, maxLeap)
			runBatchAgainstSlot(t, label, base, cell(heuristics, []uint64{uint64(trial), uint64(trial) + 100}))
		}
	}
}

// TestBatchVsSlotMarkovFuzz: the paper's regime — batches mixing several
// heuristics over several trials, each trial group sharing one Markov
// walk that must realize exactly the solo runs' walks.
func TestBatchVsSlotMarkovFuzz(t *testing.T) {
	heuristics := []string{"IE", "IY", "Y-IE", "P-IE", "E-IAY", "RANDOM"}
	for seed := uint64(1); seed <= 4; seed++ {
		base := Config{
			Platform: testPlatform(seed, 8, 4, 1),
			App:      testApp(4, 1),
			Cap:      100_000,
		}
		runBatchAgainstSlot(t, fmt.Sprintf("markov seed=%d", seed), base,
			cell(heuristics, []uint64{seed * 31, seed*31 + 1}))
	}
}

// TestBatchVsSlotSemiMarkov covers the lookahead adapter over a
// non-RunProvider availability process shared across a trial group.
func TestBatchVsSlotSemiMarkov(t *testing.T) {
	base := Config{
		Platform: testPlatform(21, 6, 3, 1),
		App:      testApp(3, 1),
		Cap:      100_000,
		Model:    avail.NewSemiMarkov(0.7),
	}
	runBatchAgainstSlot(t, "semimarkov", base, cell([]string{"IE", "Y-IE", "P-IP"}, []uint64{9, 10}))
}

// TestBatchVsSlotSojourn covers the natively run-length sojourn provider.
func TestBatchVsSlotSojourn(t *testing.T) {
	base := Config{
		Platform: testPlatform(33, 8, 4, 1),
		App:      testApp(3, 1),
		Cap:      200_000,
		Model:    avail.SojournMarkovModel{},
	}
	runBatchAgainstSlot(t, "sojourn", base, cell([]string{"IE", "P-IP", "IAY"}, []uint64{4, 5}))
}

// TestBatchVsSlotCustomHeuristic runs a custom non-SpanDecider heuristic
// (which forces per-slot decisions and bypasses the decision cache) in
// the same batch as cache-sharing incrementals.
func TestBatchVsSlotCustomHeuristic(t *testing.T) {
	stream := rng.New(0xbc4e)
	pl := testPlatform(55, 5, 2, 2)
	application := app.Application{Tasks: 3, Tprog: 3, Tdata: 2, Iterations: 3}
	for trial := 0; trial < 4; trial++ {
		script := randomScript(stream, 5, 300, 0.92)
		base := Config{
			Platform: pl,
			App:      application,
			Cap:      5_000,
			Provider: &ScriptProvider{Script: script},
		}
		insts := []BatchInstance{
			{Heuristic: "IE", Seed: uint64(trial)},
			{Heuristic: "Y-IE", Seed: uint64(trial)},
			{Custom: &fixedHeuristic{asg: app.Assignment{1, 1, 1, 0, 0}}, Seed: uint64(trial)},
		}
		runBatchAgainstSlot(t, fmt.Sprintf("custom trial=%d", trial), base, insts)
	}
}

// TestBatchSoloRunContext: Config.Advance = AdvanceLeap through the
// ordinary Run entry point is a batch of one, byte-identical to slot; so
// is a one-instance RunBatch, which bypasses the decision cache.
func TestBatchSoloRunContext(t *testing.T) {
	recSlot, recBatch := &trace.Recorder{}, &trace.Recorder{}
	cfg := Config{
		Platform:  testPlatform(7, 6, 3, 1),
		App:       testApp(3, 1),
		Heuristic: "Y-IE",
		Seed:      11,
		Cap:       100_000,
	}
	cfgSlot := cfg
	cfgSlot.Advance = AdvanceSlot
	cfgSlot.Recorder = recSlot
	resSlot, err := Run(cfgSlot)
	if err != nil {
		t.Fatal(err)
	}
	cfgBatch := cfg
	cfgBatch.Advance = AdvanceLeap
	cfgBatch.Recorder = recBatch
	resBatch, err := Run(cfgBatch)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "solo batch", resSlot, resBatch, recSlot, recBatch)

	recOne := &trace.Recorder{}
	results, stats, err := RunBatch(context.Background(), cfg,
		[]BatchInstance{{Heuristic: cfg.Heuristic, Seed: cfg.Seed, Recorder: recOne}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Decisions != (sched.DecisionStats{}) {
		t.Fatalf("one-instance batch used the decision cache: %+v", stats.Decisions)
	}
	assertIdentical(t, "one-instance batch vs solo", resBatch, results[0], recBatch, recOne)
	assertIdentical(t, "one-instance batch vs slot", resSlot, results[0], recSlot, recOne)
}

// TestBatchEmptyAndValidate: an empty batch is an error, and the single
// validation point rejects out-of-range advance modes everywhere — the
// engine, not a silent fallback, is the arbiter.
func TestBatchEmptyAndValidate(t *testing.T) {
	if _, _, err := RunBatch(context.Background(), Config{}, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	for _, a := range []TimeAdvance{AdvanceLeap, AdvanceSlot} {
		if err := a.Validate(); err != nil {
			t.Fatalf("%v rejected: %v", a, err)
		}
	}
	bad := TimeAdvance(99)
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range advance validated")
	}
	cfg := Config{
		Platform:  testPlatform(7, 3, 2, 1),
		App:       testApp(2, 1),
		Heuristic: "IE",
		Cap:       1000,
		Advance:   bad,
	}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "advance") {
		t.Fatalf("engine accepted invalid advance mode (err=%v)", err)
	}
}

// TestBatchMaxLeapAndCancel: Config.maxLeap caps every availability
// request the batch core makes, and a pre-cancelled context stops the batch before
// any slot executes while reporting partial makespans.
func TestBatchMaxLeapAndCancel(t *testing.T) {
	script, err := ParseScript([]string{"dd", "dd", "dd"})
	if err != nil {
		t.Fatal(err)
	}
	probe := &limitProbe{inner: &ScriptProvider{Script: script}}
	base := Config{
		Platform: testPlatform(80, 3, 2, 1),
		App:      testApp(2, 1),
		Cap:      100_000,
		Provider: probe,
		maxLeap:  64,
	}
	insts := []BatchInstance{{Heuristic: "IE", Seed: 1}, {Heuristic: "IY", Seed: 2}}
	results, _, err := RunBatch(context.Background(), base, insts)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if !res.Failed || res.Makespan != 100_000 {
			t.Fatalf("cap-bound instance %d: %+v", i, res)
		}
	}
	if probe.maxAsked > 64 {
		t.Fatalf("batch requested a %d-slot run with maxLeap 64", probe.maxAsked)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, _, err = RunBatch(ctx, base, insts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch returned %v", err)
	}
	for i, res := range results {
		if res.Makespan != 0 || res.Failed {
			t.Fatalf("cancelled instance %d: %+v", i, res)
		}
	}
}

// TestBatchSharingCounts: a batch of equal-seed incremental heuristics
// must actually share — the decision cache reports hits and more than one
// instance per equivalence class, and the memo delta only counts this
// batch's traffic.
func TestBatchSharingCounts(t *testing.T) {
	base := Config{
		Platform: testPlatform(3, 8, 4, 1),
		App:      testApp(4, 1),
		Cap:      100_000,
	}
	insts := cell([]string{"IP", "P-IP", "E-IP", "Y-IP"}, []uint64{42})
	_, stats, err := RunBatch(context.Background(), base, insts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Decisions.Hits == 0 {
		t.Fatalf("no shared decisions across a CritP class batch: %+v", stats.Decisions)
	}
	if stats.Memo.Hits+stats.Memo.Misses == 0 {
		t.Fatalf("memo delta empty: %+v", stats.Memo)
	}
	// Misses replay the building instance's previous build: some
	// candidate Values come back from the trace, and no more misses
	// replay in full than there are misses.
	d := stats.Decisions
	if d.CandidatesScored == 0 || d.CandidatesReused == 0 || d.Replays > d.Misses {
		t.Fatalf("build replay traffic: %+v", d)
	}
}

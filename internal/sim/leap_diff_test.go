package sim

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"testing"

	"tightsched/internal/app"
	"tightsched/internal/avail"
	"tightsched/internal/markov"
	"tightsched/internal/rng"
	"tightsched/internal/trace"
)

// This file is the differential harness pinning the event-leap engine to
// the slot-stepped reference: for randomized scripted availability and
// random Markov realizations, across passive, proactive, randomized,
// extension and custom (non-SpanDecider) heuristics and max-leap caps,
// the two cores must produce identical Results and identical traces —
// slot by slot, event by event.

// runEngines executes cfg under both time-advance cores with fresh
// recorders and returns (slotResult, leapResult, slotTrace, leapTrace).
func runEngines(t *testing.T, cfg Config) (Result, Result, *trace.Recorder, *trace.Recorder) {
	t.Helper()
	recSlot, recLeap := &trace.Recorder{}, &trace.Recorder{}
	cfgSlot := cfg
	cfgSlot.Advance = AdvanceSlot
	cfgSlot.Recorder = recSlot
	resSlot, err := Run(cfgSlot)
	if err != nil {
		t.Fatalf("slot engine: %v", err)
	}
	cfgLeap := cfg
	cfgLeap.Advance = AdvanceLeap
	cfgLeap.Recorder = recLeap
	resLeap, err := Run(cfgLeap)
	if err != nil {
		t.Fatalf("leap engine: %v", err)
	}
	return resSlot, resLeap, recSlot, recLeap
}

// assertIdentical fails unless results and traces match exactly.
func assertIdentical(t *testing.T, label string, resSlot, resLeap Result, recSlot, recLeap *trace.Recorder) {
	t.Helper()
	if resSlot != resLeap {
		t.Fatalf("%s: results diverge\nslot: %+v\nleap: %+v", label, resSlot, resLeap)
	}
	if recSlot.Len() != recLeap.Len() {
		t.Fatalf("%s: trace lengths diverge: slot %d, leap %d", label, recSlot.Len(), recLeap.Len())
	}
	next, stop := iter.Pull(recLeap.Steps())
	defer stop()
	for a := range recSlot.Steps() {
		b, ok := next()
		if !ok {
			t.Fatalf("%s: leap trace ends early at slot %d", label, a.Slot)
		}
		if a.Slot != b.Slot || a.Event != b.Event {
			t.Fatalf("%s: slot %d: step mismatch (slot %d event %q vs slot %d event %q)",
				label, a.Slot, a.Slot, a.Event, b.Slot, b.Event)
		}
		for q := range a.States {
			if a.States[q] != b.States[q] {
				t.Fatalf("%s: slot %d proc %d: state %v vs %v", label, a.Slot, q, a.States[q], b.States[q])
			}
			if a.Activities[q] != b.Activities[q] {
				t.Fatalf("%s: slot %d proc %d: activity %v vs %v", label, a.Slot, q, a.Activities[q], b.Activities[q])
			}
		}
	}
	if _, ok := next(); ok {
		t.Fatalf("%s: leap trace longer than slot trace", label)
	}
}

// randomScript draws a persistence-biased availability script: each
// processor stays in its state with probability stay, otherwise jumps to
// a uniform other state, giving runs of every length including long ones.
func randomScript(stream *rng.Stream, p, slots int, stay float64) [][]markov.State {
	rows := make([][]markov.State, slots)
	cur := make([]markov.State, p)
	for q := range cur {
		cur[q] = markov.State(stream.IntN(int(markov.NumStates)))
	}
	for t := range rows {
		row := make([]markov.State, p)
		for q := range row {
			if t > 0 && stream.Float64() < stay {
				row[q] = cur[q]
			} else {
				row[q] = markov.State(stream.IntN(int(markov.NumStates)))
			}
			cur[q] = row[q]
		}
		rows[t] = row
	}
	return rows
}

// TestLeapVsSlotScriptedFuzz: randomized scripts, every heuristic class,
// several max-leap caps.
func TestLeapVsSlotScriptedFuzz(t *testing.T) {
	heuristics := []string{"IE", "IAY", "Y-IE", "P-IP", "E-IY", "RANDOM", "FASTEST"}
	stream := rng.New(0xd1ff)
	for trial := 0; trial < 12; trial++ {
		p := 3 + stream.IntN(5)
		stay := 0.5 + 0.45*stream.Float64()
		script := randomScript(stream, p, 200+stream.IntN(400), stay)
		pl := testPlatform(uint64(1000+trial), p, 1+stream.IntN(3), 1)
		application := app.Application{
			Tasks:      1 + stream.IntN(p),
			Tprog:      stream.IntN(6),
			Tdata:      stream.IntN(4),
			Iterations: 1 + stream.IntN(4),
		}
		for _, h := range heuristics {
			for _, maxLeap := range []int64{0, 7} {
				cfg := Config{
					Platform:  pl,
					App:       application,
					Heuristic: h,
					Seed:      uint64(trial),
					Cap:       5_000,
					Provider:  &ScriptProvider{Script: script},
					maxLeap:   maxLeap,
				}
				label := fmt.Sprintf("script trial=%d %s maxleap=%d", trial, h, maxLeap)
				resSlot, resLeap, recSlot, recLeap := runEngines(t, cfg)
				assertIdentical(t, label, resSlot, resLeap, recSlot, recLeap)
			}
		}
	}
}

// TestLeapVsSlotMarkovFuzz: the default Markov provider must yield
// byte-identical realizations under both engines (the leap run provider
// steps the same RNG stream), and with them identical runs.
func TestLeapVsSlotMarkovFuzz(t *testing.T) {
	heuristics := []string{"IE", "IY", "Y-IE", "P-IE", "E-IAY", "RANDOM", "RELIABLE"}
	for seed := uint64(1); seed <= 6; seed++ {
		pl := testPlatform(seed, 8, 4, 1)
		application := testApp(4, 1)
		for _, h := range heuristics {
			cfg := Config{
				Platform:  pl,
				App:       application,
				Heuristic: h,
				Seed:      seed * 31,
				Cap:       100_000,
			}
			resSlot, resLeap, recSlot, recLeap := runEngines(t, cfg)
			assertIdentical(t, fmt.Sprintf("markov seed=%d %s", seed, h), resSlot, resLeap, recSlot, recLeap)
			if resSlot.Failed {
				t.Fatalf("markov seed=%d %s: run unexpectedly capped", seed, h)
			}
		}
	}
}

// TestLeapVsSlotSemiMarkov covers the lookahead adapter over a
// non-RunProvider availability process (the semi-Markov sampler).
func TestLeapVsSlotSemiMarkov(t *testing.T) {
	model := avail.NewSemiMarkov(0.7)
	pl := testPlatform(21, 6, 3, 1)
	application := testApp(3, 1)
	for _, h := range []string{"IE", "Y-IE"} {
		cfg := Config{
			Platform:  pl,
			App:       application,
			Heuristic: h,
			Seed:      9,
			Cap:       100_000,
			Model:     model,
		}
		resSlot, resLeap, recSlot, recLeap := runEngines(t, cfg)
		assertIdentical(t, "semimarkov "+h, resSlot, resLeap, recSlot, recLeap)
	}
}

// TestLeapVsSlotSojourn covers the natively run-length sojourn provider:
// its States walk and StatesRun view realize the same process, so both
// engines agree.
func TestLeapVsSlotSojourn(t *testing.T) {
	pl := testPlatform(33, 8, 4, 1)
	application := testApp(3, 1)
	for _, h := range []string{"IE", "P-IP"} {
		cfg := Config{
			Platform:  pl,
			App:       application,
			Heuristic: h,
			Seed:      4,
			Cap:       200_000,
			Model:     avail.SojournMarkovModel{},
		}
		resSlot, resLeap, recSlot, recLeap := runEngines(t, cfg)
		assertIdentical(t, "sojourn "+h, resSlot, resLeap, recSlot, recLeap)
	}
}

// TestLeapVsSlotCustomHeuristic runs a custom non-SpanDecider heuristic,
// which forces per-slot decisions, next to IE under both engines.
func TestLeapVsSlotCustomHeuristic(t *testing.T) {
	stream := rng.New(0xc4e7)
	pl := testPlatform(55, 5, 2, 2)
	application := app.Application{Tasks: 3, Tprog: 3, Tdata: 2, Iterations: 3}
	for trial := 0; trial < 6; trial++ {
		script := randomScript(stream, 5, 300, 0.92)
		for _, custom := range []bool{false, true} {
			cfg := Config{
				Platform:  pl,
				App:       application,
				Heuristic: "IE",
				Seed:      uint64(trial),
				Cap:       5_000,
				Provider:  &ScriptProvider{Script: script},
			}
			if custom {
				cfg.Heuristic = ""
				cfg.Custom = &fixedHeuristic{asg: app.Assignment{1, 1, 1, 0, 0}}
			}
			label := fmt.Sprintf("custom trial=%d custom=%v", trial, custom)
			resSlot, resLeap, recSlot, recLeap := runEngines(t, cfg)
			assertIdentical(t, label, resSlot, resLeap, recSlot, recLeap)
		}
	}
}

// limitProbe wraps a RunProvider and records the largest limit the
// engine ever requested — the observable form of the maxLeap bound.
type limitProbe struct {
	inner    avail.RunProvider
	maxAsked int64
}

func (p *limitProbe) States(slot int64, dst []markov.State) { p.inner.States(slot, dst) }

func (p *limitProbe) StatesRun(from int64, dst []markov.State, limit int64) int64 {
	if limit > p.maxAsked {
		p.maxAsked = limit
	}
	return p.inner.StatesRun(from, dst, limit)
}

// TestLeapMaxLeapBoundsMacroSteps: Config.maxLeap caps every macro-step
// the engine requests (the cancellation-latency bound), and a
// pre-cancelled context stops a leap run before any slot executes.
func TestLeapMaxLeapBoundsMacroSteps(t *testing.T) {
	script, err := ParseScript([]string{"dd", "dd", "dd"})
	if err != nil {
		t.Fatal(err)
	}
	probe := &limitProbe{inner: &ScriptProvider{Script: script}}
	cfg := Config{
		Platform:  testPlatform(80, 3, 2, 1),
		App:       testApp(2, 1),
		Heuristic: "IE",
		Cap:       100_000,
		Provider:  probe,
		maxLeap:   64,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed || res.Makespan != 100_000 {
		t.Fatalf("cap-bound run: %+v", res)
	}
	if probe.maxAsked > 64 {
		t.Fatalf("engine requested a %d-slot macro-step with maxLeap 64", probe.maxAsked)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = RunContext(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leap run returned %v", err)
	}
	if res.Makespan != 0 || res.Failed {
		t.Fatalf("cancelled run result: %+v", res)
	}
}

// TestLeapCapBoundIdle: a permanently infeasible script must idle to the
// cap under both engines, and the leap trace must stay run-length tiny.
func TestLeapCapBoundIdle(t *testing.T) {
	script, err := ParseScript([]string{"ddd", "ddd", "ddd"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Platform:  testPlatform(77, 3, 2, 1),
		App:       testApp(2, 1),
		Heuristic: "IE",
		Cap:       200_000,
		Provider:  &ScriptProvider{Script: script},
	}
	resSlot, resLeap, recSlot, recLeap := runEngines(t, cfg)
	assertIdentical(t, "cap-bound idle", resSlot, resLeap, recSlot, recLeap)
	if !resLeap.Failed || resLeap.IdleSlots != 200_000 {
		t.Fatalf("cap-bound run: %+v", resLeap)
	}
	if recLeap.SpanCount() > 8 {
		t.Fatalf("leap trace uses %d spans for a homogeneous cap-bound run", recLeap.SpanCount())
	}
	if recSlot.SpanCount() != recLeap.SpanCount() {
		t.Fatalf("span counts differ: slot %d, leap %d (coalescing broken)", recSlot.SpanCount(), recLeap.SpanCount())
	}
}

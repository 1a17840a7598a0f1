package sim

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"tightsched/internal/app"
	"tightsched/internal/markov"
	"tightsched/internal/rng"
	"tightsched/internal/sched"
	"tightsched/internal/trace"
)

// This file checks the engine's decision codes (sched.Codes): at every
// decision of every instance, under the production and the slot core,
// the codes the view carries must be the engine's own and equal codes
// recomputed from the view's states and retention. The production core
// rewrites a code only where it can have changed (a run's changed
// processors, message completions, zero-cost adoption, iteration end),
// so a missed rewrite shows up here as a stale code, before it could
// mis-key a shared build.

// codeCheck wraps an instance's heuristic and checks the engine's codes
// before each decision.
type codeCheck struct {
	sched.Heuristic
	t         *testing.T
	label     string
	e         *engine
	decisions int
	// up and upEpoch are the UP set and the codes' UP epoch at the
	// previous decision.
	up      []bool
	upEpoch uint64
}

func (c *codeCheck) Decide(v *sched.View) app.Assignment {
	c.check(v)
	return c.Heuristic.Decide(v)
}

func (c *codeCheck) check(v *sched.View) {
	c.t.Helper()
	c.decisions++
	if got := reflect.ValueOf(v).Elem().FieldByName("codes").Pointer(); got != uintptr(unsafe.Pointer(&c.e.codes)) {
		c.t.Fatalf("%s slot %d: the view does not carry the engine's codes", c.label, v.Slot)
	}
	var want sched.Codes
	want.Init(len(v.States), c.e.cfg.App.Tasks)
	want.SetAll(v.States, v.Workers)
	got := reflect.ValueOf(&c.e.codes).Elem()
	rw := reflect.ValueOf(&want).Elem()
	if got.FieldByName("width").Int() != rw.FieldByName("width").Int() ||
		!slices.Equal(got.FieldByName("b").Bytes(), rw.FieldByName("b").Bytes()) {
		c.t.Fatalf("%s slot %d: engine codes %v, recomputed %v (states %v, workers %+v)",
			c.label, v.Slot, c.e.codes, want, v.States, v.Workers)
	}
	// The UP epoch must move whenever the UP set changed since the
	// previous decision: a proactive candidate cache validates on it.
	epoch := got.FieldByName("upEpoch").Uint()
	up := make([]bool, len(v.States))
	for q, s := range v.States {
		up[q] = s == markov.Up
	}
	if c.up != nil && !slices.Equal(up, c.up) && epoch == c.upEpoch {
		c.t.Fatalf("%s slot %d: UP set %v became %v under one UP epoch %d",
			c.label, v.Slot, c.up, up, epoch)
	}
	c.up, c.upEpoch = up, epoch
}

// spanCodeCheck is codeCheck for a SpanDecider, so that wrapping keeps
// the instance on its decision leaps.
type spanCodeCheck struct {
	*codeCheck
	sd sched.SpanDecider
}

func (c spanCodeCheck) DecideSpan(v *sched.View, n int64) (app.Assignment, int64) {
	c.check(v)
	return c.sd.DecideSpan(v, n)
}

// runCodeChecked runs the instances as RunBatch does under advance, with
// every heuristic wrapped in a codeCheck, and returns the results and
// traces.
func runCodeChecked(t *testing.T, label string, base Config, insts []BatchInstance, advance TimeAdvance) ([]Result, []*trace.Recorder) {
	t.Helper()
	base.Advance = advance
	slot := advance == AdvanceSlot
	var dc *sched.DecisionCache
	if !slot {
		dc = sched.NewDecisionCache()
	}
	recs := make([]*trace.Recorder, len(insts))
	batch := make([]BatchInstance, len(insts))
	for i, in := range insts {
		recs[i] = &trace.Recorder{}
		in.Recorder = recs[i]
		batch[i] = in
	}
	engines, err := newBatchEngines(base, batch, slot, dc)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	checks := make([]*codeCheck, len(engines))
	for i, e := range engines {
		c := &codeCheck{Heuristic: e.h, t: t, label: fmt.Sprintf("%s %v inst=%d %s", label, advance, i, e.h.Name()), e: e}
		checks[i] = c
		if sd, ok := e.h.(sched.SpanDecider); ok {
			e.h = spanCodeCheck{c, sd}
		} else {
			e.h = c
		}
	}
	if slot {
		for _, e := range engines {
			if _, err := e.runSlot(context.Background()); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	} else if err := runBatchLoop(context.Background(), trialGroups(base, batch, engines)); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	results := make([]Result, len(engines))
	for i, e := range engines {
		results[i] = e.res
		if checks[i].decisions == 0 {
			t.Fatalf("%s: no decision checked", checks[i].label)
		}
	}
	return results, recs
}

// checkDecisionCodes checks the codes under both cores and that the two
// cores' wrapped runs stay identical.
func checkDecisionCodes(t *testing.T, label string, base Config, insts []BatchInstance) {
	t.Helper()
	resLeap, recLeap := runCodeChecked(t, label, base, insts, AdvanceLeap)
	resSlot, recSlot := runCodeChecked(t, label, base, insts, AdvanceSlot)
	for i := range insts {
		assertIdentical(t, fmt.Sprintf("%s inst=%d", label, i), resSlot[i], resLeap[i], recSlot[i], recLeap[i])
	}
}

// codeHeuristics mixes cache-sharing incrementals, proactives and RANDOM.
var codeHeuristics = []string{"IE", "IY", "Y-IE", "P-IP", "E-IAY", "RANDOM"}

// codeScenario is one scripted cell of the decision-code tests.
type codeScenario struct {
	name    string
	p       int
	app     app.Application
	script  [][]markov.State
	maxLeap int64
	// extra heuristics run beside codeHeuristics.
	extra []string
}

// zeroCostHeuristics ride along in the zero-cost scenarios: their
// candidate caches key on the retention epoch that zero-cost adoptions
// move.
var zeroCostHeuristics = []string{"P-IY", "Y-IY"}

func (sc codeScenario) base() Config {
	return Config{
		Platform: testPlatform(uint64(sc.p)*7+uint64(sc.app.Tasks), sc.p, 2, 1),
		App:      sc.app,
		Cap:      3_000,
		Provider: &ScriptProvider{Script: sc.script},
		maxLeap:  sc.maxLeap,
	}
}

// stuckDown returns a random script in which processor 0 stays DOWN for
// rows [from, to) while the others keep changing, so that it is DOWN
// across several runs.
func stuckDown(stream *rng.Stream, p, slots, from, to int) [][]markov.State {
	script := randomScript(stream, p, slots, 0.8)
	for t := from; t < to; t++ {
		script[t][0] = markov.Down
	}
	return script
}

// constantScript returns slots rows of one state vector: a single run,
// which a small maxLeap splits into runs with nothing changed.
func constantScript(row []markov.State, slots int) [][]markov.State {
	script := make([][]markov.State, slots)
	for t := range script {
		script[t] = row
	}
	return script
}

func codeScenarios() []codeScenario {
	stream := rng.New(0xc0de5)
	return []codeScenario{
		{
			// m >= 64: codes two bytes wide.
			name:   "wide codes",
			p:      4,
			app:    app.Application{Tasks: 70, Tprog: 2, Tdata: 1, Iterations: 2},
			script: randomScript(stream, 4, 400, 0.9),
		},
		{
			name:   "zero-cost messages",
			p:      5,
			app:    app.Application{Tasks: 3, Tprog: 0, Tdata: 0, Iterations: 4},
			script: randomScript(stream, 5, 300, 0.85),
			extra:  zeroCostHeuristics,
		},
		{
			name:   "zero-cost program",
			p:      5,
			app:    app.Application{Tasks: 4, Tprog: 0, Tdata: 2, Iterations: 3},
			script: randomScript(stream, 5, 300, 0.85),
			extra:  zeroCostHeuristics,
		},
		{
			name:   "zero-cost data, wide codes",
			p:      3,
			app:    app.Application{Tasks: 64, Tprog: 3, Tdata: 0, Iterations: 2},
			script: randomScript(stream, 3, 300, 0.9),
			extra:  zeroCostHeuristics,
		},
		{
			name:   "stays DOWN across runs",
			p:      5,
			app:    app.Application{Tasks: 3, Tprog: 3, Tdata: 2, Iterations: 3},
			script: stuckDown(stream, 5, 400, 20, 250),
		},
		{
			name:    "runs split by maxLeap",
			p:       4,
			app:     app.Application{Tasks: 3, Tprog: 4, Tdata: 2, Iterations: 3},
			script:  constantScript([]markov.State{markov.Up, markov.Up, markov.Reclaimed, markov.Up}, 200),
			maxLeap: 3,
		},
	}
}

// TestDecisionCodesScenarios runs each scenario with the code check under
// both cores.
func TestDecisionCodesScenarios(t *testing.T) {
	for _, sc := range codeScenarios() {
		checkDecisionCodes(t, sc.name, sc.base(), cell(append(slices.Clip(codeHeuristics), sc.extra...), []uint64{1, 2}))
	}
}

// TestBatchVsSlotDecisionCodeScenarios is the plain batch-versus-slot
// differential over the same scenarios, through RunBatch itself.
func TestBatchVsSlotDecisionCodeScenarios(t *testing.T) {
	for _, sc := range codeScenarios() {
		runBatchAgainstSlot(t, sc.name, sc.base(), cell(append(slices.Clip(codeHeuristics), sc.extra...), []uint64{1, 2}))
	}
}

// decodeCodeScenario turns fuzz bytes into a scripted cell: platform
// size, task count (64 and more widen the codes), message costs (zero
// included), iterations, maxLeap, the script's persistence, and a
// processor held DOWN over a stretch of the script.
func decodeCodeScenario(data []byte) codeScenario {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	p := 2 + at(0)%5
	m := 1 + at(1)%p
	if at(1)&0x80 != 0 {
		m = 60 + at(1)%8
	}
	h := uint64(0x9e3779b97f4a7c15)
	for _, b := range data {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	stream := rng.New(h)
	slots := 50 + at(6)%200
	script := randomScript(stream, p, slots, 0.5+float64(at(5)%10)/20)
	if at(7)&1 != 0 {
		from := at(8) % slots
		for t := from; t < min(slots, from+at(9)); t++ {
			script[t][0] = markov.Down
		}
	}
	return codeScenario{
		name:    fmt.Sprintf("fuzz %x", data),
		p:       p,
		app:     app.Application{Tasks: m, Tprog: at(2) % 4, Tdata: at(3) % 3, Iterations: 1 + at(4)%3},
		script:  script,
		maxLeap: []int64{0, 1, 3, 7}[at(10)%4],
	}
}

// FuzzDecisionCodes checks the engine's decision codes at every decision
// of random scripted cells under both cores, and that the cores agree.
func FuzzDecisionCodes(f *testing.F) {
	f.Add([]byte{3, 2, 1, 1, 2, 3, 100, 0, 0, 0, 0})
	f.Add([]byte{2, 0x81, 0, 0, 1, 9, 150, 1, 10, 120, 2}) // wide codes, zero cost, stuck DOWN
	f.Add([]byte{4, 3, 2, 0, 2, 5, 90, 1, 5, 60, 3})
	f.Add([]byte{1, 0x85, 3, 2, 0, 8, 40, 0, 0, 0, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeCodeScenario(data)
		checkDecisionCodes(t, sc.name, sc.base(), cell([]string{"IE", "Y-IE", "IY", "RANDOM"}, []uint64{1, 2}))
	})
}

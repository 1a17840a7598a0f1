package main

import (
	"context"
	"fmt"
	"maps"
	"sync/atomic"
	"testing"

	"tightsched"
	"tightsched/internal/rng"
	"tightsched/internal/sched"
)

// The traced run is only worth its numbers if the twins are transparent:
// same per-instance results, same fast paths.

// twinPrefixes keeps every test's registered twin names distinct, since
// the registries outlive a test (and -count reruns it in one process).
var twinPrefixes atomic.Int64

func newTestTracer() *tracer {
	return newTracer(fmt.Sprintf("test%d.", twinPrefixes.Add(1)))
}

func TestTracedSweepMatchesPlain(t *testing.T) {
	for _, adv := range []tightsched.TimeAdvance{tightsched.AdvanceBatch, tightsched.AdvanceLeap} {
		sw := tightsched.QuickSweep(5)
		sw.Ncoms, sw.Wmins, sw.Scenarios, sw.Trials, sw.Cap = []int{5, 20}, []int{1, 3}, 1, 2, 20_000
		sw.Heuristics = []string{"IE", "IP", "Y-IE", "P-IAY", "RANDOM"}
		sw.Advance = adv
		ctx := context.Background()
		s := tightsched.NewSession()
		plain, err := s.RunSweep(ctx, sw, tightsched.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}

		tr := newTestTracer()
		if err := tr.registerHeuristics(sw.Heuristics); err != nil {
			t.Fatal(err)
		}
		traced := sw
		traced.Heuristics = tr.names(sw.Heuristics)
		traced.Models = []tightsched.AvailabilityModel{tr.model(tightsched.MarkovModel{}, "markov")}
		res, err := s.RunSweep(ctx, traced, tightsched.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		want, got := map[tightsched.SweepKey]tightsched.SweepInstance{}, map[tightsched.SweepKey]tightsched.SweepInstance{}
		for _, in := range plain.Instances {
			want[in.Key()] = in
		}
		for _, in := range res.Instances {
			in.Heuristic = tr.strip(in.Heuristic)
			got[in.Key()] = in
		}
		if len(want) != len(plain.Instances) || !maps.Equal(want, got) {
			t.Fatalf("%s: traced instances differ from plain:\n%v\n%v", adv, res.Instances, plain.Instances)
		}
		if n := tr.runs.Load(); n != int64(len(want)) {
			t.Errorf("%s: %d heuristic builds, want one per simulation (%d)", adv, n, len(want))
		}
		if tr.decide.calls.Load() == 0 || tr.availWalk.calls.Load() == 0 || tr.availSetup.calls.Load() == 0 {
			t.Errorf("%s: a traced layer saw no calls: decide %d, walk %d, setup %d", adv,
				tr.decide.calls.Load(), tr.availWalk.calls.Load(), tr.availSetup.calls.Load())
		}
	}
}

func TestTracedGridMatchesPlain(t *testing.T) {
	g := tightsched.QuickOnlineSweep()
	g.Trials, g.Horizon = 2, 8_000
	ctx := context.Background()
	s := tightsched.NewSession()
	plain, err := s.RunOnline(ctx, g, tightsched.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}

	tr := newTestTracer()
	if err := tr.registerHeuristics([]string{g.Heuristic}); err != nil {
		t.Fatal(err)
	}
	if err := tr.registerModel(g.Model); err != nil {
		t.Fatal(err)
	}
	if err := tr.registerPolicies(g.Admissions, g.Preemptions); err != nil {
		t.Fatal(err)
	}
	traced := g
	traced.Heuristic, traced.Model = tr.name(g.Heuristic), tr.name(g.Model)
	traced.Admissions, traced.Preemptions = tr.names(g.Admissions), tr.names(g.Preemptions)
	res, err := s.RunOnline(ctx, traced, tightsched.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	want, got := map[tightsched.OnlineKey]tightsched.OnlineInstance{}, map[tightsched.OnlineKey]tightsched.OnlineInstance{}
	for _, in := range plain.Grid.Instances {
		want[in.Key()] = in
	}
	for _, in := range res.Grid.Instances {
		in.Admission, in.Preemption = tr.strip(in.Admission), tr.strip(in.Preemption)
		got[in.Key()] = in
	}
	if len(want) != len(plain.Grid.Instances) || !maps.Equal(want, got) {
		t.Fatalf("traced grid instances differ from plain:\n%v\n%v", res.Grid.Instances, plain.Grid.Instances)
	}
	if tr.admission.calls.Load() == 0 || tr.victim.calls.Load() == 0 {
		t.Errorf("policies saw no calls: admission %d, victim %d", tr.admission.calls.Load(), tr.victim.calls.Load())
	}
	if tr.runs.Load() == 0 || tr.availWalk.calls.Load() == 0 {
		t.Errorf("runs %d, walk calls %d: want both positive", tr.runs.Load(), tr.availWalk.calls.Load())
	}
}

// decideOnly hides DecideSpan of the heuristic it embeds.
type decideOnly struct{ tightsched.Heuristic }

func TestTwinsForwardFastPaths(t *testing.T) {
	tr := newTestTracer()
	sc := tightsched.PaperScenario(5, 10, 2, 1)
	mats := sc.Platform.Matrices()

	// The sojourn model's provider has StatesRun; the Markov chains'
	// steps slot by slot.
	runs := 0
	for _, m := range []tightsched.AvailabilityModel{tightsched.SojournMarkovModel{}, tightsched.MarkovModel{}} {
		_, innerRun := m.Provider(mats, 1, false).(tightsched.RunProvider)
		_, twinRun := tr.model(m, m.Name()).Provider(mats, 1, false).(tightsched.RunProvider)
		if innerRun != twinRun {
			t.Errorf("%s: provider has StatesRun %t, its twin %t", m.Name(), innerRun, twinRun)
		}
		if innerRun {
			runs++
		}
	}
	if runs != 1 {
		t.Fatalf("%d of the two probe models have a RunProvider, want 1", runs)
	}

	env := &tightsched.HeuristicEnv{Platform: sc.Platform, App: sc.App, Rand: rng.NewKeyed(1)}
	for _, name := range tightsched.PaperHeuristics() {
		build, ok := sched.Lookup(name)
		if !ok {
			t.Fatalf("heuristic %s not registered", name)
		}
		inner, err := build(env)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := inner.(sched.SpanDecider); !ok {
			t.Fatalf("built-in %s lacks DecideSpan", name)
		}
		if _, ok := tr.heuristic(inner).(sched.SpanDecider); !ok {
			t.Errorf("twin of %s drops DecideSpan", name)
		}
		if _, ok := tr.heuristic(decideOnly{inner}).(sched.SpanDecider); ok {
			t.Errorf("twin of a Decide-only %s claims DecideSpan", name)
		}
	}
}

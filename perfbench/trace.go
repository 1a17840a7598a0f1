package main

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"tightsched"
	"tightsched/internal/grid"
	"tightsched/internal/sched"
)

// The traced run measures each layer from outside the program: the
// built-in availability model, heuristics and grid policies are wrapped
// in delegating twins that time every call into the layer and count the
// work, then registered under prefixed names (the façade has no
// build-by-name, so the twins build their inner built-ins through the
// registries). The twins forward the optional fast-path interfaces
// (RunProvider.StatesRun, SpanDecider.DecideSpan) exactly when the inner
// value has them: dropping one would silently change the cost measured.

// timer accumulates the wall time and call count of one layer boundary.
// The campaign's workers call wrappers concurrently, hence the atomics.
type timer struct {
	ns, calls atomic.Int64
}

func (t *timer) add(d time.Duration) {
	t.ns.Add(int64(d))
	t.calls.Add(1)
}

func (t *timer) stop(start time.Time) { t.add(time.Since(start)) }

func (t *timer) seconds() float64 { return float64(t.ns.Load()) / 1e9 }

// tracer owns the counters every wrapper of one traced process feeds.
type tracer struct {
	prefix string

	availSetup timer // Model.Provider and Model.EstimatorMatrices
	availWalk  timer // StateProvider.States and RunProvider.StatesRun
	availSlots atomic.Int64
	decide     timer        // Heuristic.Decide and SpanDecider.DecideSpan
	runs       atomic.Int64 // heuristic factory calls: simulations started
	admission  timer        // AdmissionPolicy.Priority
	victim     timer        // PreemptionPolicy.Victim, minus the priority calls it makes
}

func newTracer(prefix string) *tracer { return &tracer{prefix: prefix} }

// name returns the registered name of inner's traced twin.
func (t *tracer) name(inner string) string { return t.prefix + inner }

// names maps name over a list.
func (t *tracer) names(inner []string) []string {
	out := make([]string, len(inner))
	for i, n := range inner {
		out[i] = t.name(n)
	}
	return out
}

// strip maps a twin's name back to the built-in it wraps.
func (t *tracer) strip(name string) string { return strings.TrimPrefix(name, t.prefix) }

// registerHeuristics registers a traced twin of each named heuristic.
func (t *tracer) registerHeuristics(names []string) error {
	for _, name := range names {
		build, ok := sched.Lookup(name)
		if !ok {
			return fmt.Errorf("trace: unknown heuristic %q", name)
		}
		err := tightsched.RegisterHeuristic(t.name(name), func(env *tightsched.HeuristicEnv) (tightsched.Heuristic, error) {
			t.runs.Add(1)
			h, err := build(env)
			if err != nil {
				return nil, err
			}
			return t.heuristic(h), nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// heuristic wraps h, keeping DecideSpan when h has it.
func (t *tracer) heuristic(h tightsched.Heuristic) tightsched.Heuristic {
	base := tracedHeuristic{inner: h, t: t}
	if sd, ok := h.(sched.SpanDecider); ok {
		return &tracedSpanHeuristic{tracedHeuristic: base, span: sd}
	}
	return &base
}

type tracedHeuristic struct {
	inner tightsched.Heuristic
	t     *tracer
}

func (h *tracedHeuristic) Name() string { return h.inner.Name() }

func (h *tracedHeuristic) Decide(v *tightsched.HeuristicView) tightsched.Assignment {
	start := time.Now()
	a := h.inner.Decide(v)
	h.t.decide.stop(start)
	return a
}

type tracedSpanHeuristic struct {
	tracedHeuristic
	span sched.SpanDecider
}

func (h *tracedSpanHeuristic) DecideSpan(v *tightsched.HeuristicView, n int64) (tightsched.Assignment, int64) {
	start := time.Now()
	a, keep := h.span.DecideSpan(v, n)
	h.t.decide.stop(start)
	return a, keep
}

// model wraps an availability model under the given name. Offline sweeps
// take the twin directly through Sweep.Models under the inner's own name,
// so journals and tables keep the label.
func (t *tracer) model(inner tightsched.AvailabilityModel, name string) tightsched.AvailabilityModel {
	return &tracedModel{inner: inner, name: name, t: t}
}

// registerModel registers a traced twin of the named built-in model under
// its prefixed name, for campaigns that resolve models by name.
func (t *tracer) registerModel(name string) error {
	if _, err := tightsched.ModelByName(name); err != nil {
		return err
	}
	return tightsched.RegisterModel(t.name(name), func() tightsched.AvailabilityModel {
		inner, err := tightsched.ModelByName(name)
		if err != nil {
			panic(err) // resolved above; the built-in registry never shrinks
		}
		return t.model(inner, t.name(name))
	})
}

type tracedModel struct {
	inner tightsched.AvailabilityModel
	name  string
	t     *tracer
}

func (m *tracedModel) Name() string { return m.name }

func (m *tracedModel) EstimatorMatrices(base []tightsched.AvailabilityMatrix) []tightsched.AvailabilityMatrix {
	start := time.Now()
	out := m.inner.EstimatorMatrices(base)
	m.t.availSetup.stop(start)
	return out
}

func (m *tracedModel) Provider(base []tightsched.AvailabilityMatrix, seed uint64, allUp bool) tightsched.StateProvider {
	start := time.Now()
	p := m.inner.Provider(base, seed, allUp)
	m.t.availSetup.stop(start)
	tp := tracedProvider{inner: p, t: m.t}
	if rp, ok := p.(tightsched.RunProvider); ok {
		return &tracedRunProvider{tracedProvider: tp, run: rp}
	}
	return &tp
}

type tracedProvider struct {
	inner tightsched.StateProvider
	t     *tracer
}

func (p *tracedProvider) States(slot int64, dst []tightsched.State) {
	start := time.Now()
	p.inner.States(slot, dst)
	p.t.availWalk.stop(start)
	p.t.availSlots.Add(1)
}

type tracedRunProvider struct {
	tracedProvider
	run tightsched.RunProvider
}

func (p *tracedRunProvider) StatesRun(from int64, dst []tightsched.State, limit int64) int64 {
	start := time.Now()
	n := p.run.StatesRun(from, dst, limit)
	p.t.availWalk.stop(start)
	p.t.availSlots.Add(n)
	return n
}

// registerPolicies registers traced twins of the named admission and
// preemption policies.
func (t *tracer) registerPolicies(admissions, preemptions []string) error {
	for _, name := range admissions {
		if _, err := grid.Admission(name); err != nil {
			return err
		}
		err := tightsched.RegisterAdmissionPolicy(t.name(name), func() tightsched.AdmissionPolicy {
			inner, err := grid.Admission(name)
			if err != nil {
				panic(err) // resolved above; the policy registry never shrinks
			}
			return &tracedAdmission{inner: inner, name: t.name(name), t: t}
		})
		if err != nil {
			return err
		}
	}
	for _, name := range preemptions {
		if _, err := grid.Preemption(name); err != nil {
			return err
		}
		err := tightsched.RegisterPreemptionPolicy(t.name(name), func() tightsched.PreemptionPolicy {
			inner, err := grid.Preemption(name)
			if err != nil {
				panic(err) // resolved above; the policy registry never shrinks
			}
			return &tracedPreemption{inner: inner, name: t.name(name), t: t}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

type tracedAdmission struct {
	inner tightsched.AdmissionPolicy
	name  string
	t     *tracer
}

func (a *tracedAdmission) Name() string { return a.name }

func (a *tracedAdmission) Priority(app tightsched.OnlineEntry, now int64) float64 {
	start := time.Now()
	p := a.inner.Priority(app, now)
	a.t.admission.stop(start)
	return p
}

type tracedPreemption struct {
	inner tightsched.PreemptionPolicy
	name  string
	t     *tracer
}

func (p *tracedPreemption) Name() string { return p.name }

// Victim times the inner policy's own work: the priority callbacks it
// makes are the (already timed) admission twin, so their time is
// subtracted rather than counted twice.
func (p *tracedPreemption) Victim(cand tightsched.OnlineEntry, running []tightsched.OnlineEntry, now int64, prio func(tightsched.OnlineEntry, int64) float64) int {
	var nested time.Duration
	timed := func(a tightsched.OnlineEntry, at int64) float64 {
		start := time.Now()
		v := prio(a, at)
		nested += time.Since(start)
		return v
	}
	start := time.Now()
	v := p.inner.Victim(cand, running, now, timed)
	p.t.victim.add(time.Since(start) - nested)
	return v
}

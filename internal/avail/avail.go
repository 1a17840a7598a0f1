// Package avail is the pluggable availability-model subsystem: it decides
// how processor availability evolves slot by slot (the ground truth the
// simulator executes) and which Markov matrices the Section V estimators
// should believe about that evolution.
//
// The paper's model (Section III.B) assumes availability is a 3-state
// Markov chain, but its future-work section (VII.B) observes that real
// desktop-grid availability is not memoryless: production traces suggest
// semi-Markov processes with Weibull or Log-Normal holding times. This
// package makes that distinction a first-class seam with three
// implementations:
//
//   - MarkovModel — the paper's chains; believed matrices are exact.
//   - SemiMarkovModel — non-memoryless holding times; believed matrices
//     are fitted ("flawed") from calibration traces via markov.Fit.
//   - TraceModel — replay of a recorded/scripted availability log;
//     believed matrices are fitted from the log itself.
//
// Every layer above consumes models through the Model interface:
// platform.Platform carries one, sim.Config resolves it into a per-trial
// StateProvider, sched/analytic are built from its believed matrices, and
// exp.Sweep treats models as a campaign axis (see DESIGN.md).
package avail

import (
	"slices"

	"tightsched/internal/markov"
	"tightsched/internal/rng"
)

// StateProvider feeds the engine the availability state of every
// processor, slot by slot. The engine calls States with consecutive slot
// values starting at 0.
type StateProvider interface {
	States(slot int64, dst []markov.State)
}

// ProviderFunc adapts a function to the StateProvider interface.
type ProviderFunc func(slot int64, dst []markov.State)

// States implements StateProvider.
func (f ProviderFunc) States(slot int64, dst []markov.State) { f(slot, dst) }

// RunProvider is the optional StateProvider extension the event-leap
// engine consumes: instead of one vector per slot, it reports how long
// the whole state vector stays constant, so the engine can apply the
// intervening homogeneous slots in bulk.
//
// Implementations may consume their internal random streams exactly as a
// slot-by-slot States walk would (the Markov chain provider does, which
// is what keeps realizations — and golden tables — byte-identical across
// engines), or sample sojourn lengths directly (SojournMarkovModel).
type RunProvider interface {
	StateProvider
	// StatesRun fills dst with the state vector at slot from and returns
	// n in [1, max(1, limit)]: the vector is constant over the slots
	// from .. from+n-1, and either n == limit or the vector changes at
	// slot from+n. Successive calls must use non-decreasing from values.
	StatesRun(from int64, dst []markov.State, limit int64) int64
}

// AsRunProvider returns a run-length view of p: p itself when it already
// implements RunProvider, otherwise a lookahead adapter that walks p slot
// by slot — consuming any internal randomness exactly as the slot engine
// would, so realizations stay byte-identical — while buffering the first
// differing vector. The adapter inherits StateProvider's sequential
// contract: it fetches consecutive slots starting at 0.
func AsRunProvider(p StateProvider) RunProvider {
	if rp, ok := p.(RunProvider); ok {
		return rp
	}
	return &lookahead{p: p}
}

// lookahead adapts any slot-by-slot provider to RunProvider by fetching
// ahead until the vector changes. cur holds the vector at slot next-1
// (the most recently fetched slot).
type lookahead struct {
	p    StateProvider
	next int64
	cur  []markov.State
	buf  []markov.State
}

// States implements StateProvider by delegation (for callers that mix the
// two views; the engine uses exactly one per run).
func (la *lookahead) States(slot int64, dst []markov.State) { la.p.States(slot, dst) }

// StatesRun implements RunProvider.
func (la *lookahead) StatesRun(from int64, dst []markov.State, limit int64) int64 {
	if limit < 1 {
		limit = 1
	}
	if la.cur == nil {
		la.cur = make([]markov.State, len(dst))
		la.buf = make([]markov.State, len(dst))
	}
	// Catch up to from, fetching each slot exactly once. When the
	// previous call ended at a change, cur already holds slot from.
	for la.next <= from {
		la.p.States(la.next, la.cur)
		la.next++
	}
	copy(dst, la.cur)
	n := int64(1)
	for n < limit {
		la.p.States(la.next, la.buf)
		la.next++
		if !StatesEqual(la.buf, la.cur) {
			la.cur, la.buf = la.buf, la.cur
			return n
		}
		n++
	}
	return n
}

// StatesEqual reports whether two state vectors are identical.
func StatesEqual(a, b []markov.State) bool { return slices.Equal(a, b) }

// Model is a pluggable availability model. A model is platform-generic:
// the per-processor nominal Markov matrices of the concrete platform are
// passed to both methods, so one model value can serve every scenario of
// an experimental sweep.
//
// Implementations must be safe for concurrent use: the experiment harness
// calls Provider and EstimatorMatrices from many goroutines at once.
type Model interface {
	// Name identifies the model in experiment axes and result tables.
	Name() string
	// Provider returns the ground-truth availability process of one
	// trial, keyed by seed, for a platform whose nominal per-processor
	// matrices are base. Equal seeds must yield identical realizations.
	// When allUp is true the trial starts with every processor UP.
	Provider(base []markov.Matrix, seed uint64, allUp bool) StateProvider
	// EstimatorMatrices returns the per-processor Markov matrices the
	// Section V estimators should believe: exact for Markov models,
	// fitted ("flawed") for model-violating ones.
	EstimatorMatrices(base []markov.Matrix) []markov.Matrix
}

// MarkovModel is the paper's availability model: each processor follows
// its nominal 3-state Markov chain, and the believed matrices are exact.
// The zero value is ready to use.
type MarkovModel struct{}

// Name implements Model.
func (MarkovModel) Name() string { return "markov" }

// EstimatorMatrices implements Model: the chains are the ground truth.
func (MarkovModel) EstimatorMatrices(base []markov.Matrix) []markov.Matrix { return base }

// Provider implements Model. Each processor's chain is sampled
// independently, exactly as Section III.B prescribes; availability is
// independent of scheduling decisions, so two heuristics run with the
// same seed see the same realization. When allUp is false, initial states
// are drawn from each chain's stationary distribution (the platform is in
// steady state when the application arrives).
func (MarkovModel) Provider(base []markov.Matrix, seed uint64, allUp bool) StateProvider {
	initStream := rng.NewKeyed(seed, 0x1217)
	samplers := make([]*markov.Sampler, len(base))
	for q, m := range base {
		start := markov.Up
		if !allUp {
			pi := m.Stationary()
			start = markov.State(initStream.Categorical(pi[:]))
		}
		samplers[q] = markov.NewSampler(m, start, rng.NewKeyed(seed, 0x5107, uint64(q)))
	}
	return &chainProvider{samplers: samplers}
}

// chainProvider steps per-processor Markov samplers in lockstep.
type chainProvider struct {
	samplers []*markov.Sampler
}

// States implements StateProvider.
func (cp *chainProvider) States(slot int64, dst []markov.State) {
	for q, s := range cp.samplers {
		if slot == 0 {
			dst[q] = s.State()
		} else {
			dst[q] = s.Step()
		}
	}
}

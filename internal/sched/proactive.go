package sched

import (
	"tightsched/internal/app"
	"tightsched/internal/markov"
)

// proactive wraps a passive incremental heuristic H with a switch
// criterion C, per Section VI.B: every slot it builds a candidate
// configuration from scratch with H and compares it, under C, against the
// progress-updated value of the running configuration. The candidate is
// adopted only if strictly better (the paper keeps the current
// configuration when c >= c2), which together with the progress update
// realizes the paper's no-divergence constraint: a configuration that has
// run longer scores at least as well as the same configuration started
// fresh, so the scheduler cannot oscillate between configurations.
type proactive struct {
	env  *Env
	base *incremental
	crit Criterion
	name string

	// Candidate cache: the fresh build depends only on which workers are
	// UP and on message-granularity retention, both captured by the
	// engine's retention epoch. Re-scoring a cached candidate is cheap;
	// rebuilding it costs up to m·p series evaluations (fewer when the
	// base heuristic replays its previous build).
	cacheValid bool
	cacheUp    []bool
	cacheEpoch int64
	cacheAsg   app.Assignment

	// Reusable buffers for the per-slot re-scoring of the running and
	// candidate configurations; the set statistics themselves come from
	// the platform-level membership memo in analytic.Platform.
	scratch evalScratch
}

// Name implements Heuristic.
func (h *proactive) Name() string { return h.name }

// Decide implements Heuristic: DecideSpan with a one-slot horizon.
func (h *proactive) Decide(v *View) app.Assignment {
	next, _ := h.DecideSpan(v, 1)
	return next
}

// DecideSpan implements SpanDecider — the single home of the proactive
// adoption rule (Decide delegates here). The candidate cache is keyed on
// exactly the quantities that are constant over a homogeneous span (the
// UP set and the retention epoch), so whenever the cached candidate is
// nil, Equal to the running configuration, or adopted at the span's
// first slot, the decision is stable for the whole span. Only a live
// score comparison — a distinct candidate competing against the running
// configuration under Elapsed-driven scores — forces per-slot decisions.
func (h *proactive) DecideSpan(v *View, n int64) (app.Assignment, int64) {
	cand := h.candidate(v)
	if v.Current == nil {
		return cand, n
	}
	if cand == nil || cand.Equal(v.Current) {
		return v.Current, n
	}
	cur := h.crit.Score(evalCurrent(h.env, v, &h.scratch))
	alt := h.crit.Score(evalFresh(h.env, v, cand, &h.scratch))
	if cur >= alt {
		return v.Current, 1
	}
	return cand, 1
}

// candidate returns the fresh configuration H would build now, using the
// (UP set, retention epoch) cache.
func (h *proactive) candidate(v *View) app.Assignment {
	if h.cacheValid && h.cacheEpoch == v.RetentionEpoch && h.sameUp(v) {
		return h.cacheAsg
	}
	cand := h.base.build(v)
	if h.cacheUp == nil {
		h.cacheUp = make([]bool, len(v.States))
	}
	for q, s := range v.States {
		h.cacheUp[q] = s == markov.Up
	}
	h.cacheEpoch = v.RetentionEpoch
	h.cacheAsg = cand
	h.cacheValid = true
	return cand
}

func (h *proactive) sameUp(v *View) bool {
	if h.cacheUp == nil || len(h.cacheUp) != len(v.States) {
		return false
	}
	for q, s := range v.States {
		if (s == markov.Up) != h.cacheUp[q] {
			return false
		}
	}
	return true
}

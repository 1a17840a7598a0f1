package sched

import (
	"tightsched/internal/app"
	"tightsched/internal/markov"
)

// proactive wraps a passive incremental heuristic H with a switch
// criterion C, per Section VI.B: every slot it compares the candidate, the
// configuration H builds from scratch (cached as described below), under
// C against the progress-updated value of the running configuration. The
// candidate is adopted only if strictly better (the paper keeps the
// current configuration when c >= c2), which together with the progress
// update realizes the paper's no-divergence constraint: a configuration
// that has run longer scores at least as well as the same configuration
// started fresh, so the scheduler cannot oscillate between
// configurations.
type proactive struct {
	env  *Env
	base *incremental
	crit Criterion
	name string

	// Candidate cache, keyed on the UP set and the engine's retention
	// epoch. An IP, IE or IAY build depends only on those. An IY build
	// also reads Elapsed (CritY scores P/(E+T)), which the key omits, so
	// X-IY keeps a candidate built at an earlier Elapsed where Section
	// VI.B rebuilds every slot (DESIGN.md, "Reproduction notes").
	// Re-scoring a cached candidate is cheap; rebuilding it costs up to
	// m·p series evaluations (fewer when the base heuristic replays its
	// previous build or the batch memo holds its Values).
	cacheValid bool
	cacheUp    upSet
	cacheEpoch int64
	cacheAsg   app.Assignment
	// candVal holds cacheAsg's fresh (P, E) when candValOK. It reads
	// only the candidate and its workers' retention, which the cache key
	// fixes, so it is computed once per cached candidate.
	candVal   Value
	candValOK bool

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
	if !h.candValOK {
		h.candVal = evalFresh(h.env, v, cand, &h.scratch)
		h.candValOK = true
	}
	fresh := h.candVal
	fresh.T = float64(v.Elapsed)
	if cur >= h.crit.Score(fresh) {
		return v.Current, 1
	}
	return cand, 1
}

// candidate returns the fresh configuration H would build now, using the
// (UP set, retention epoch) cache.
func (h *proactive) candidate(v *View) app.Assignment {
	if h.cacheValid && h.cacheEpoch == v.RetentionEpoch && h.cacheUp.same(v) {
		return h.cacheAsg
	}
	cand := h.base.build(v)
	h.cacheUp.record(v)
	h.cacheEpoch = v.RetentionEpoch
	h.cacheAsg = cand
	h.cacheValid = true
	h.candValOK = false
	return cand
}

// upSet is the UP set a cached candidate was built under. A view the
// engine attached codes to is recorded by its codes' UP epoch, which the
// engine moves whenever a processor's UP bit changes, so validating the
// cache walks no states; a hand-built view is recorded as one flag per
// processor.
type upSet struct {
	codes *Codes
	epoch uint64
	up    []bool
}

// same reports whether v's UP set is the recorded one.
func (u *upSet) same(v *View) bool {
	if c := v.codes; c != nil {
		return u.codes == c && u.epoch == c.upEpoch
	}
	if u.codes != nil || len(u.up) != len(v.States) {
		return false
	}
	for q, s := range v.States {
		if (s == markov.Up) != u.up[q] {
			return false
		}
	}
	return true
}

// record makes v's UP set the recorded one.
func (u *upSet) record(v *View) {
	u.codes = v.codes
	if v.codes != nil {
		u.epoch = v.codes.upEpoch
		return
	}
	if len(u.up) != len(v.States) {
		u.up = make([]bool, len(v.States))
	}
	for q, s := range v.States {
		u.up[q] = s == markov.Up
	}
}

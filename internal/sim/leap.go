package sim

import (
	"tightsched/internal/app"
	"tightsched/internal/markov"
	"tightsched/internal/sched"
	"tightsched/internal/trace"
)

// This file holds the homogeneous-span methods of the production core
// (runGroup, batch.go). Between availability transitions and phase
// events every slot of the slot-stepped reference loop is identical, so
// the production core advances time by macro-steps:
//
//  1. the availability seam (avail.RunProvider) reports the run length
//     of the current state vector — under the default Markov provider it
//     steps the same RNG stream internally, so the realization (and
//     therefore every golden table) is byte-identical to the slot walk;
//  2. the heuristic is consulted once per homogeneous sub-step through
//     sched.SpanDecider, which reports how long its decision is stable
//     (heuristics without the extension are decided every slot);
//  3. the phase mechanics (idle, communication, suspension, coupled
//     compute) are applied in bulk up to the next phase event — the
//     earliest of a message completion, the workload's end, the
//     availability change and the cap;
//  4. the trace recorder receives one run-length span per sub-step
//     instead of one step per slot.
//
// Parity with runSlot is structural, not approximate: a sub-step ends at
// every slot whose successor the slot engine could treat differently
// (retention-epoch change, phase event, availability change, or a
// heuristic that only vouches for one slot), so each bulk application
// reproduces the per-slot recurrence exactly. The differential tests in
// leap_diff_test.go and TestLeapGoldenParity pin this.

// decideSpan consults the heuristic for slot t with a homogeneity horizon
// of n slots, applies the decision, and returns for how many slots
// (1..n) it is committed.
func (e *engine) decideSpan(t, n int64) (int64, error) {
	v := e.view(t)
	var next app.Assignment
	keep := int64(1)
	if sd, ok := e.h.(sched.SpanDecider); ok {
		next, keep = sd.DecideSpan(v, n)
		if keep < 1 {
			keep = 1
		} else if keep > n {
			keep = n
		}
	} else {
		next = e.h.Decide(v)
	}
	return keep, e.apply(next, t)
}

// executeSpan advances the current phase by up to k homogeneous slots,
// mirroring execute()'s per-slot semantics in bulk. It returns the number
// of slots consumed (>= 1) and leaves e.acts holding the activity vector
// shared by all of them; a completed iteration writes its event through
// event.
func (e *engine) executeSpan(slot, k int64, event *string) int64 {
	for q := range e.acts {
		e.acts[q] = trace.NotEnrolled
	}
	if e.current == nil {
		e.res.IdleSlots += k
		return k
	}
	for _, q := range e.enrolled {
		e.acts[q] = trace.Idle
	}

	if e.commOutstanding() {
		return e.communicateSpan(k)
	}

	// Computation phase: all enrolled workers must be UP simultaneously;
	// with any of them RECLAIMED the configuration stays suspended for
	// the rest of the homogeneous span.
	for _, q := range e.enrolled {
		if e.states[q] != markov.Up {
			return k
		}
	}
	for _, q := range e.enrolled {
		e.acts[q] = trace.Compute
	}
	// The workload is at least one slot and computeDone stays below it
	// between slots, so the remainder is positive.
	j := min(k, int64(e.workload-e.computeDone))
	e.computeDone += int(j)
	e.res.ComputeSlots += j
	if e.computeDone >= e.workload {
		e.finishIteration(slot+j-1, event)
	}
	return j
}

// communicateSpan is communicate() in bulk: the serviced set — the first
// Ncom needy UP enrolled workers in processor order — is constant until a
// message completes, so the span advances every active transfer by
// j = min(k, earliest completion) slots at once. Completions (and their
// retention-epoch bumps) land in the span's final slot, exactly where the
// per-slot loop puts them.
func (e *engine) communicateSpan(k int64) int64 {
	budget := e.cfg.Platform.Ncom
	j := k
	served := e.commServed[:0]
	for _, q := range e.enrolled {
		if budget == 0 {
			break
		}
		if e.states[q] != markov.Up {
			continue
		}
		w := &e.workers[q]
		var rem int
		switch {
		case !w.HasProgram:
			rem = e.cfg.App.Tprog - w.ProgProgress
		case w.DataHeld < e.current[q]:
			rem = e.cfg.App.Tdata - w.DataProgress
		default:
			continue // fully provisioned; no bandwidth used
		}
		if rem < 1 {
			rem = 1 // zero-cost items complete at adoption; never here
		}
		if int64(rem) < j {
			j = int64(rem)
		}
		served = append(served, q)
		budget--
	}
	e.commServed = served
	for _, q := range served {
		w := &e.workers[q]
		if !w.HasProgram {
			e.acts[q] = trace.Program
			w.ProgProgress += int(j)
			if w.ProgProgress >= e.cfg.App.Tprog {
				w.HasProgram = true
				w.ProgProgress = 0
				e.retEpoch++
				e.codes.Set(q, markov.Up, w)
			}
		} else {
			e.acts[q] = trace.Data
			w.DataProgress += int(j)
			if w.DataProgress >= e.cfg.App.Tdata {
				w.DataHeld++
				w.DataProgress = 0
				e.retEpoch++
				e.codes.Set(q, markov.Up, w)
			}
		}
		e.res.CommSlots += j
	}
	return j
}

// recordLeap records one sub-step's span and its events. A restart event
// belongs to the span's first slot and a completion event to its last; when
// both land on the same slot the completion wins, as in the slot engine
// (finishIteration overwrites the handleDowns event).
func (e *engine) recordLeap(t, j int64, downEvent, finEvent string) {
	r := e.cfg.Recorder
	if r == nil {
		return
	}
	if downEvent != "" && !(finEvent != "" && j == 1) {
		r.AddEvent(t, downEvent)
	}
	if finEvent != "" {
		r.AddEvent(t+j-1, finEvent)
	}
	r.RecordSpan(t, j, e.states, e.acts)
}

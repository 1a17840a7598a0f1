package sim

import (
	"context"
	"fmt"

	"tightsched/internal/analytic"
	"tightsched/internal/avail"
	"tightsched/internal/markov"
	"tightsched/internal/sched"
	"tightsched/internal/trace"
)

// This file is the production core: all instances of one trial — every
// heuristic sharing a platform, application and availability
// realization — advance through the same slots together, and a sweep
// cell's trial groups run back to back. A solo run (RunContext) is a
// trial group of one. The transition-dense Markov regime defeats
// per-run leaping alone (runs average ~1.5 slots, so per-slot structure
// is exhausted); the structure that remains is *across* instances:
//
//   - instances of one trial see the same availability realization, so
//     the batch draws each trial's transitions once per run from that
//     trial's own seeded stream and shares the state vector across the
//     trial group (solo runs re-sample the identical walk once per
//     heuristic, and re-derive the provider's stationary setup with it);
//   - fresh greedy builds are pure functions of (criterion, UP set,
//     retention, elapsed-under-CritY), so instances whose believed views
//     coincide form an equivalence class that pays for one build through
//     the shared sched.DecisionCache, with the analytic SetStats memo
//     (keyed by believed-state SetKey) already shared underneath;
//   - per-instance results accumulate in bulk through the homogeneous-
//     span arithmetic of leap.go.
//
// Parity is structural: each instance executes exactly the slot
// recurrence via the engine's own decideSpan/executeSpan/handleDowns
// methods over its trial's homogeneous runs — the shared walk realizes
// the same state sequence a solo run's provider would, and the shared
// caches return values their misses would have computed — so Results,
// traces and events are byte-identical to the slot reference
// (batch_diff_test.go, TestBatchGoldenParity).

// BatchInstance names one simulation of a batch: a heuristic (or a
// custom policy) plus the trial seed selecting its availability
// realization. Instances with equal seeds form a trial group and share
// one availability walk.
type BatchInstance struct {
	// Heuristic is one of sched.Names(); ignored when Custom is set.
	Heuristic string
	// Custom, when non-nil, is used instead of building Heuristic by
	// name. Custom policies run unshared (they do not route through the
	// decision cache) but still share their trial's availability walk.
	Custom sched.Heuristic
	// Seed determines the instance's availability realization and any
	// randomized decisions, exactly as Config.Seed does solo.
	Seed uint64
	// Recorder, when non-nil, records this instance's per-slot trace.
	Recorder *trace.Recorder
}

// BatchStats summarizes the cross-instance sharing of one batch.
type BatchStats struct {
	// Memo is the analytic set-statistics memo traffic during the batch
	// (a delta against the platform's counters at entry, so a cache-
	// warmed platform reports only this batch's lookups).
	Memo analytic.MemoStats
	// Decisions is the shared greedy-build cache traffic: every miss is
	// one equivalence-class representative built, every hit a build some
	// instance did not pay for.
	Decisions sched.DecisionStats
}

// batchGroup is one trial's slice of the structure-of-arrays state: the
// shared availability walk and the instances consuming it.
type batchGroup struct {
	rp     avail.RunProvider
	states []markov.State
	// prev is the previous run's state vector (unseenStates before the
	// first run). Each run diffs states against it once into changed,
	// the processors whose state changed, and downs, those of them now
	// DOWN, and hands both to every instance: an instance's DOWN
	// handling and decision codes move only where the states moved.
	prev    []markov.State
	changed []int
	downs   []int
	insts   []*engine
	live    int
}

// unseenStates fills prev with a value no processor state takes, so the
// first run's diff counts every processor as changed, and returns it.
func unseenStates(prev []markov.State) []markov.State {
	for q := range prev {
		prev[q] = markov.NumStates
	}
	return prev
}

// diff lists the processors whose state changed since the previous run,
// and the newly DOWN ones among them, and records the states as the
// previous run's.
func (g *batchGroup) diff() {
	g.changed, g.downs = g.changed[:0], g.downs[:0]
	for q, s := range g.states {
		if s == g.prev[q] {
			continue
		}
		g.prev[q] = s
		g.changed = append(g.changed, q)
		if s == markov.Down {
			g.downs = append(g.downs, q)
		}
	}
}

// RunBatch executes all instances in lockstep under the production core.
// The shared cell configuration comes from base — Platform, App, Model,
// Cap, InitialAllUp, Eps, Analytic, AnalyticCache, RenewalE and
// Advance apply to every instance — while base's
// per-instance fields (Heuristic, Custom, Seed, Recorder) are ignored in
// favor of each BatchInstance. Results are returned in instance order.
//
// Each instance's Result, trace and events are byte-identical to a solo
// Run of the equivalent Config. When base.Provider is set it overrides
// every trial's realization (as it does solo) and is consulted once for
// the whole batch, so it must be deterministic by slot (scripted
// providers are). Under base.Advance == AdvanceSlot every instance runs
// solo through the reference loop, sharing nothing but the analytic
// cache; a one-instance batch runs as its own trial group with no
// decision cache.
//
// Cancellation follows RunContext's contract, checked once per group
// step: completed instances keep their results, live ones return the
// partial Result accumulated so far (zero for trial groups not yet
// started), and the context's error is returned alongside.
func RunBatch(ctx context.Context, base Config, insts []BatchInstance) ([]Result, BatchStats, error) {
	if len(insts) == 0 {
		return nil, BatchStats{}, fmt.Errorf("sim: empty batch")
	}
	if base.AnalyticCache == nil {
		// Instances of a batch share believed matrices; one private
		// cache makes them share the analytic platform (and its memo)
		// even when the caller did not provide one.
		base.AnalyticCache = analytic.NewPlatformCache()
	}
	// Only a multi-instance lockstep batch shares greedy builds; the
	// slot oracle and a batch of one run each instance on its own.
	slot := base.Advance == AdvanceSlot
	solo := slot || len(insts) == 1
	var dc *sched.DecisionCache
	if !solo {
		dc = sched.NewDecisionCache()
	}
	engines, err := newBatchEngines(base, insts, solo, dc)
	if err != nil {
		return nil, BatchStats{}, err
	}
	apl := engines[0].env.Analytic
	memoBefore := apl.MemoStats()

	switch {
	case slot:
		for _, e := range engines {
			if _, err = e.runSlot(ctx); err != nil {
				break
			}
		}
	case solo:
		err = runGroup(ctx, engines[0].ownGroup())
	default:
		err = runBatchLoop(ctx, trialGroups(base, insts, engines))
	}
	results := make([]Result, len(engines))
	for i, e := range engines {
		results[i] = e.res
	}
	stats := BatchStats{Memo: apl.MemoStats().Sub(memoBefore)}
	if dc != nil {
		stats.Decisions = dc.Stats()
	}
	return results, stats, err
}

// newBatchEngines builds one engine per instance over base, each with
// its own provider when solo, all sharing the decision cache dc.
func newBatchEngines(base Config, insts []BatchInstance, solo bool, dc *sched.DecisionCache) ([]*engine, error) {
	engines := make([]*engine, len(insts))
	for i, inst := range insts {
		cfg := base
		cfg.Heuristic = inst.Heuristic
		cfg.Custom = inst.Custom
		cfg.Seed = inst.Seed
		cfg.Recorder = inst.Recorder
		e, err := newEngine(cfg, solo)
		if err != nil {
			return nil, err
		}
		e.env.Decisions = dc
		engines[i] = e
	}
	return engines, nil
}

// trialGroups groups a batch's instances by trial: equal seeds share one
// availability walk. With an explicit provider the realization is
// scheduling- and seed-independent, so the whole batch forms a single
// group.
func trialGroups(base Config, insts []BatchInstance, engines []*engine) []*batchGroup {
	model := base.Model
	if model == nil {
		model = base.Platform.AvailModel()
	}
	mats := base.Platform.Matrices()
	var groups []*batchGroup
	p := base.Platform.Size()
	newGroup := func(prov StateProvider) *batchGroup {
		states := make([]markov.State, 2*p)
		lists := make([]int, 2*p)
		return &batchGroup{
			rp:      avail.AsRunProvider(prov),
			states:  states[:p:p],
			prev:    unseenStates(states[p:]),
			changed: lists[:0:p],
			downs:   lists[p:p],
		}
	}
	if base.Provider != nil {
		g := newGroup(base.Provider)
		g.insts = engines
		groups = []*batchGroup{g}
	} else {
		bySeed := make(map[uint64]*batchGroup, len(insts))
		for i, e := range engines {
			g := bySeed[insts[i].Seed]
			if g == nil {
				g = newGroup(model.Provider(mats, insts[i].Seed, base.InitialAllUp))
				bySeed[insts[i].Seed] = g
				groups = append(groups, g)
			}
			g.insts = append(g.insts, e)
		}
	}
	for _, g := range groups {
		g.live = len(g.insts)
		for _, e := range g.insts {
			// The engine's state vector aliases the group's: every
			// engine method reads availability through e.states and
			// none writes it.
			e.states = g.states
		}
	}
	return groups
}

// runBatchLoop advances the trial groups one after the other: groups
// share no runtime state beyond the time-independent caches, so there is
// nothing to synchronize across them, and running each group through its
// own full availability runs keeps every instance's decision epochs at
// exactly a solo run's boundaries (a cross-group lockstep would chop
// every run to the shortest live trial's, roughly doubling the decision
// epochs of a two-trial cell without changing any result).
func runBatchLoop(ctx context.Context, groups []*batchGroup) error {
	for _, g := range groups {
		if err := runGroup(ctx, g); err != nil {
			return err
		}
	}
	return nil
}

// runGroup is the production time loop, the lockstep slot walk of one
// trial group: each step draws the trial's next homogeneous run — one
// RNG block-fill shared by the whole group — and advances every live
// instance through it via the engine's own homogeneous-span methods.
func runGroup(ctx context.Context, g *batchGroup) error {
	capSlots := g.insts[0].cap
	maxLeap := g.insts[0].cfg.maxLeap
	if maxLeap == 0 {
		maxLeap = defaultMaxLeap
	}
	done := ctx.Done()
	slot := int64(0)
	for g.live > 0 && slot < capSlots {
		// One context poll per group step: at most maxLeap slots of O(p)
		// bulk work run between polls. Instances of groups not yet
		// started keep their zero Result, consistent with the
		// cancellation contract.
		if done != nil {
			select {
			case <-done:
				for _, e := range g.insts {
					if !e.done {
						e.res.Makespan = slot
					}
				}
				return ctx.Err()
			default:
			}
		}
		limit := capSlots - slot
		if limit > maxLeap {
			limit = maxLeap
		}
		run := g.rp.StatesRun(slot, g.states, limit)
		if run < 1 {
			run = 1
		} else if run > limit {
			run = limit
		}
		g.diff()
		for _, e := range g.insts {
			if e.done {
				continue
			}
			downEvent := ""
			if len(g.downs) > 0 {
				// New DOWNs appear only at a run's first slot: states are
				// constant afterwards, and a processor DOWN since an
				// earlier run has nothing left to wipe (see handleDowns).
				downEvent = e.handleDowns(g.downs)
			}
			for _, q := range g.changed {
				e.codes.Set(q, g.states[q], &e.workers[q])
			}
			for off := int64(0); off < run; {
				t := slot + off
				keep, err := e.decideSpan(t, run-off)
				if err != nil {
					return err
				}
				finEvent := ""
				j := e.executeSpan(t, keep, &finEvent)
				e.recordLeap(t, j, downEvent, finEvent)
				downEvent = ""
				if e.res.Completed == e.cfg.App.Iterations {
					e.res.Makespan = t + j
					e.done = true
					g.live--
					break
				}
				off += j
			}
		}
		slot += run
	}
	for _, e := range g.insts {
		if !e.done {
			e.res.Failed = true
			e.res.Makespan = capSlots
		}
	}
	return nil
}

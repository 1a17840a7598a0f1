package sched

import (
	"encoding/binary"

	"tightsched/internal/app"
	"tightsched/internal/markov"
)

// DecisionCache shares greedy configuration builds across the simulation
// instances of one lockstep batch (sim.RunBatch). A fresh build by an
// incremental heuristic is a pure function of
//
//   - the base criterion,
//   - the UP set,
//   - the message-granularity retention (HasProgram, DataHeld) of every
//     UP processor — exactly what commNeedFresh reads, and
//   - the iteration's elapsed time, but only under CritY (the one
//     criterion whose Score reads Value.T),
//
// given a shared environment (same platform, application, believed
// matrices, analytic evaluator and E-metric form). Instances whose views
// coincide on that key therefore form an equivalence class that pays for
// one build; everyone else gets the memoized assignment back,
// bit-identical to what their own build would have produced because the
// analytic layer's memoized statistics are canonical.
//
// Infeasible builds (nil: the UP workers cannot host m tasks) are cached
// like any other value. Callers must treat returned assignments as
// immutable — the engine clones on adoption, so sharing one slice across
// instances, and across an instance's equal consecutive builds, is safe
// (see Heuristic.Decide).
//
// The cache sits above each instance's build replay: a miss is built by
// the instance that missed, replaying its own previous fresh build (see
// buildTrace), and a hit leaves that instance's trace untouched. A
// replayed build equals a cold one, so keys, hits and misses are what
// they would be without replay.
//
// A cache must not outlive the environment family it was built under: it
// is created per batch, and like the heuristics it serves it is confined
// to a single goroutine.
type DecisionCache struct {
	entries map[string]app.Assignment
	key     []byte

	hits    uint64
	misses  uint64
	replays uint64
	scored  uint64
	reused  uint64
}

// decisionCacheLimit bounds the table; on overflow it is cleared, which
// is semantically invisible because entries are pure functions of their
// keys. A quick paper cell peaks around 245k classes (the CritY family
// keys on elapsed time, so its classes accumulate with simulated time),
// so the limit is set just above that knee, and larger cells pay an
// invisible rebuild instead of more memory. A full table of p = 20 keys
// measures about 77 MB when every entry holds its own assignment, and
// about 44 MB when four entries in five share one: a heuristic instance
// returns the same slice for equal consecutive builds, and quick Table I
// replays 81% of its builds.
const decisionCacheLimit = 1 << 18

// NewDecisionCache returns an empty single-goroutine decision cache.
func NewDecisionCache() *DecisionCache {
	return &DecisionCache{entries: make(map[string]app.Assignment)}
}

// DecisionStats summarizes a cache's traffic. Every miss is one fresh
// greedy build (one equivalence class representative); every hit is a
// build some other instance — or the same instance at a later, equivalent
// epoch — did not pay for. The mean equivalence-class size is
// (Hits+Misses)/Misses.
type DecisionStats struct {
	Hits   uint64
	Misses uint64
	// Classes is the number of distinct decision classes currently held
	// (a gauge: it drops back when the table clears on overflow).
	Classes int
	// Replays counts the misses whose every greedy step picked the
	// winner of the building instance's previous build.
	Replays uint64
	// CandidatesScored counts candidate Values the misses computed;
	// CandidatesReused counts those read back from the build trace.
	CandidatesScored uint64
	CandidatesReused uint64
}

// Stats returns the cache's counters.
func (dc *DecisionCache) Stats() DecisionStats {
	return DecisionStats{
		Hits:             dc.hits,
		Misses:           dc.misses,
		Classes:          len(dc.entries),
		Replays:          dc.replays,
		CandidatesScored: dc.scored,
		CandidatesReused: dc.reused,
	}
}

// noteBuild records one fresh build's candidate traffic; a nil cache
// (solo runs) records nothing.
func (dc *DecisionCache) noteBuild(scored, reused int, replayed bool) {
	if dc == nil {
		return
	}
	dc.scored += uint64(scored)
	dc.reused += uint64(reused)
	if replayed {
		dc.replays++
	}
}

// lookup returns the memoized build for the view under crit. The
// composed key stays in dc.key so that a following store pays no second
// serialization. The boolean reports a hit (a stored nil assignment is a
// hit with a nil value).
func (dc *DecisionCache) lookup(env *Env, crit Criterion, v *View) (app.Assignment, bool) {
	buf := dc.key[:0]
	buf = append(buf, byte(crit))
	if crit == CritY {
		// Only CritY's score reads Value.T = v.Elapsed; the other
		// criteria share builds across elapsed times.
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Elapsed))
	}
	for q, s := range v.States {
		if s != markov.Up {
			// DOWN and RECLAIMED are both non-candidates for a fresh
			// build; their retention is unread.
			buf = append(buf, 0)
			continue
		}
		w := v.Workers[q]
		b := byte(1)
		if w.HasProgram {
			b |= 2
		}
		buf = append(buf, b)
		buf = binary.AppendUvarint(buf, uint64(w.DataHeld))
	}
	dc.key = buf
	asg, ok := dc.entries[string(buf)]
	if ok {
		dc.hits++
	} else {
		dc.misses++
	}
	return asg, ok
}

// store records the build for the key composed by the preceding lookup.
func (dc *DecisionCache) store(asg app.Assignment) {
	if len(dc.entries) >= decisionCacheLimit {
		clear(dc.entries)
	}
	dc.entries[string(dc.key)] = asg
}

package sched

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"

	"tightsched/internal/app"
	"tightsched/internal/flat"
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
// immutable — the engine adopts them as they are and never writes to
// them, so sharing one slice across instances, and across an instance's
// equal consecutive builds, is safe (see Heuristic.Decide).
//
// The cache sits above each instance's build replay: a miss is built by
// the instance that missed, replaying its own previous fresh build (see
// buildTrace), and a hit leaves that instance's trace untouched. A
// replayed build equals a cold one, so keys, hits and misses are what
// they would be without replay. Below the trace, a miss reads the
// candidate Values any build of the batch already scored from the
// cache's candidate-Value memo (see valueMemo), which lives exactly as
// long as the cache.
//
// A cache must not outlive the environment family it was built under: it
// is created per batch, and like the heuristics it serves it is confined
// to a single goroutine.
type DecisionCache struct {
	// tab maps a key's table key (its maphash value, 0 mapped to 1
	// because 0 is flat's empty mark) to the id of the entry last stored
	// under it. A hash match with different key bytes is a miss, and the
	// store that follows takes the table key over, so a collision costs
	// at most a rebuild. The table is exact-match and never read in slot
	// order, so its random hash seed cannot reach any output.
	seed maphash.Seed
	tab  flat.Table[uint32]
	// chunks hold the n entries in order, dcChunkSize to a chunk, so that
	// growth never copies an entry.
	chunks []*[dcChunkSize]dcEntry
	n      int
	// pages is the key arena: pages of keyPageSize bytes (a longer key
	// gets a page of its own), filled in order from pages[page]. Storing
	// a key copies it into the arena, and growth never moves a key.
	pages [][]byte
	page  int

	// key is the key the last lookup composed, and hash its table key.
	key  []byte
	hash uint64
	// codes is the scratch a view without attached codes is encoded in.
	codes Codes

	// values is the batch's candidate-Value memo.
	values valueMemo

	hits    uint64
	misses  uint64
	replays uint64
	scored  uint64
	reused  uint64
}

// dcEntry is one stored build: where its key's bytes sit in the key
// arena, and the assignment.
type dcEntry struct {
	page, off, len uint32
	asg            app.Assignment
}

// decisionCacheLimit bounds the table; on overflow it is cleared, which
// is semantically invisible because entries are pure functions of their
// keys. A quick paper cell peaks around 245k classes (the CritY family
// keys on elapsed time, so its classes accumulate with simulated time),
// so the limit is set just above that knee, and larger cells pay an
// invisible rebuild instead of more memory. A full table of random
// p = 20 keys (m < 64) measures about 61 MB of heap when every entry
// holds its own assignment, and about 29 MB when four entries in five
// share one: a heuristic instance returns the same slice for equal
// consecutive builds, and quick Table I replays 81% of its builds. Of
// that, the table itself (slots, entries and key pages) is about 21 MB.
// Indexing it with flat's 16-byte slots, at most three quarters full, in
// place of 4-byte ids at most half full added about 3 MB to a full table.
const decisionCacheLimit = 1 << 18

// keyPageSize is the size of one key arena page. A p = 20 key of an
// application under 64 tasks is 21 bytes, or 29 under CritY.
const keyPageSize = 16 << 10

// dcChunkSize is the number of entries in one chunk: 20 KiB of 40-byte
// entries, a small-object size class.
const dcChunkSize = 512

// NewDecisionCache returns an empty single-goroutine decision cache.
func NewDecisionCache() *DecisionCache {
	return &DecisionCache{
		seed:   maphash.MakeSeed(),
		tab:    flat.New[uint32](64),
		values: valueMemo{tab: flat.New[memoVal](valueMemoSlots), nodes: rootNode, limit: valueMemoLimit},
	}
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
	// CandidatesScored counts candidate Values the misses did not read
	// back from the build trace; CandidatesReused counts those they did.
	CandidatesScored uint64
	CandidatesReused uint64
	// ValueMemoLookups counts the scored candidates looked up in the
	// candidate-Value memo, and ValueMemoHits those it held, which were
	// therefore not computed.
	ValueMemoHits    uint64
	ValueMemoLookups uint64
}

// Stats returns the cache's counters.
func (dc *DecisionCache) Stats() DecisionStats {
	return DecisionStats{
		Hits:             dc.hits,
		Misses:           dc.misses,
		Classes:          dc.tab.Len(),
		Replays:          dc.replays,
		CandidatesScored: dc.scored,
		CandidatesReused: dc.reused,
		ValueMemoHits:    dc.values.hits,
		ValueMemoLookups: dc.values.lookups,
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

// lookup returns the memoized build for the view under crit. The key is
// the criterion, the elapsed time under CritY, then one copy of the
// view's decision codes (see Codes): within one environment the code
// width is fixed, so keys are fixed-length per criterion. The composed
// key stays in dc.key so that a following store pays no second
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
	buf = append(buf, v.decisionCodes(env, &dc.codes).b...)
	dc.key = buf
	dc.hash = max(maphash.Bytes(dc.seed, buf), 1)
	if id, ok := dc.tab.Get(dc.hash); ok {
		if e := dc.entry(int(id)); bytes.Equal(dc.pages[e.page][e.off:e.off+e.len], buf) {
			dc.hits++
			return e.asg, true
		}
	}
	dc.misses++
	return nil, false
}

// store records the build for the key composed by the preceding lookup,
// which must have missed. The key's table key now names the new entry,
// also when a colliding key's entry held it.
func (dc *DecisionCache) store(asg app.Assignment) {
	if dc.n >= decisionCacheLimit {
		dc.reset()
	}
	if dc.n == len(dc.chunks)*dcChunkSize {
		dc.chunks = append(dc.chunks, new([dcChunkSize]dcEntry))
	}
	page, off := dc.keep(dc.key)
	*dc.entry(dc.n) = dcEntry{page: page, off: off, len: uint32(len(dc.key)), asg: asg}
	dc.tab.Put(dc.hash, uint32(dc.n))
	dc.n++
}

// entry returns the entry with the given id.
func (dc *DecisionCache) entry(id int) *dcEntry {
	return &dc.chunks[id/dcChunkSize][id%dcChunkSize]
}

// keep copies key into the arena and returns where it went. A page too
// full for the key is left behind, and a page kept from before a reset
// is reused when the key fits it.
func (dc *DecisionCache) keep(key []byte) (page, off uint32) {
	for dc.page < len(dc.pages) && cap(dc.pages[dc.page])-len(dc.pages[dc.page]) < len(key) {
		dc.page++
	}
	if dc.page == len(dc.pages) {
		dc.pages = append(dc.pages, make([]byte, 0, max(keyPageSize, len(key))))
	}
	p := dc.pages[dc.page]
	dc.pages[dc.page] = append(p, key...)
	return uint32(dc.page), uint32(len(p))
}

// reset empties the table, keeping its slot array, entry chunks and key
// pages.
func (dc *DecisionCache) reset() {
	dc.tab.Reset()
	for _, c := range dc.chunks {
		clear(c[:])
	}
	for i := range dc.pages {
		dc.pages[i] = dc.pages[i][:0]
	}
	dc.n, dc.page = 0, 0
}

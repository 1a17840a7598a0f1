package sched

import "tightsched/internal/flat"

// valueMemo is a lockstep batch's memo of candidate Values under fresh
// greedy builds; each DecisionCache holds one. Within one batch a
// candidate's Value (T unset) is a pure function of
//
//   - the ordered sequence of the build's winners so far, each with its
//     decision code (the winners' retention sets their communication
//     needs, and candidateValue multiplies P_comm in member insertion
//     order, so the order is part of the key),
//   - the candidate, and
//   - the candidate's decision code,
//
// and not of the criterion: only Criterion.Score reads the criterion and
// T. Instances of a batch — and the four base criteria — that walk the
// same prefix therefore score each candidate once. A prefix is named by a
// node id, rootNode being the empty prefix; the build walks it forward
// after each pick (see child).
//
// The memo is one flat table (see package flat) on a uint64 key packing
// node<<32 | processor<<16 | code. A value entry holds the candidate's
// (P, E); a prefix entry, whose key also carries prefixTag, holds the
// child's node id in p. Keys therefore fit processors and codes below
// 2¹⁶ (applications under 2¹⁴ tasks); a build outside that range scores
// without the memo. Node ids start at rootNode = 1, so no key is 0,
// flat's empty-slot mark.
//
// The memo is cleared only when a build starts (see begin), so the node
// id a live build holds never goes stale.
type valueMemo struct {
	tab flat.Table[memoVal]
	// nodes is the last node id handed out (rootNode when empty).
	nodes uint32
	// limit bounds the entries: valueMemoLimit, lowered by tests to
	// force a clear.
	limit int

	hits, lookups uint64
}

type memoVal struct{ p, e float64 }

// rootNode is the node id of the empty winner prefix.
const rootNode = 1

// prefixTag marks a prefix entry's key; node ids stay below 2³¹.
const prefixTag = 1 << 63

// valueMemoLimit bounds the table: one build adds at most m·(p+1)
// entries, so while that stays under 8,192 the table never outgrows 2¹⁵
// slots of 24 bytes (768 KiB). On overflow the memo clears at the next
// build's start, which is invisible: entries are pure functions of
// their keys. The largest quick Table I cells reach about 25k entries
// and clear once; that keeps 99.8% of the hits a limit of 2¹⁷ entries
// has, and brought table1's peak RSS from 8% over the parent's on one
// seed to about 2% on both.
const valueMemoLimit = 1 << 14

// valueMemoSlots is the table's first slot count, enough for a small
// cell's few thousand entries without growing.
const valueMemoSlots = 1 << 12

// memoKey packs a node id, a processor and a decision code.
func memoKey(node uint32, q int, code uint64) uint64 {
	return uint64(node)<<32 | uint64(q)<<16 | code
}

// begin starts a build over p processors whose codes are c, returning the
// root node, or 0 when the build cannot be keyed (wide codes or too many
// processors) and must score without the memo. Clearing an overflowing
// memo here, and only here, keeps every node id of a running build live.
func (vm *valueMemo) begin(c *Codes, p int) uint32 {
	if c.width > 2 || p > 1<<16 {
		return 0
	}
	if vm.tab.Len() >= vm.limit {
		vm.tab.Reset()
		vm.nodes = rootNode
	}
	return rootNode
}

// child returns the node of the prefix node extended by winner q with
// decision code code, creating it if new.
func (vm *valueMemo) child(node uint32, q int, code uint64) uint32 {
	key := prefixTag | memoKey(node, q, code)
	if c, ok := vm.tab.Get(key); ok {
		return uint32(c.p)
	}
	vm.nodes++
	vm.tab.Put(key, memoVal{p: float64(vm.nodes)})
	return vm.nodes
}

package sched

import "math/bits"

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
// The memo is one flat open-addressing table with linear probing over a
// power-of-two slot array, indexed by a multiplicative (Fibonacci) hash
// of a uint64 key packing node<<32 | processor<<16 | code. A value entry
// holds the candidate's (P, E); a prefix entry, whose key also carries
// prefixTag, holds the child's node id in p. Keys therefore fit
// processors and codes below 2¹⁶ (applications under 2¹⁴ tasks); a
// build outside that range scores without the memo. Node ids start at
// rootNode = 1, so no key is 0, the empty-slot mark. The table never
// deletes, only clears whole, and nothing reads it in slot order.
//
// The memo is cleared only when a build starts (see begin), so the node
// id a live build holds never goes stale.
type valueMemo struct {
	slots []memoSlot
	n     int  // entries held
	shift uint // 64 - log2(len(slots))
	// nodes is the last node id handed out (rootNode when empty).
	nodes uint32
	// limit bounds the entries: valueMemoLimit, lowered by tests to
	// force a clear.
	limit int

	hits, lookups uint64
}

type memoSlot struct {
	key  uint64
	p, e float64
}

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

// valueMemoSlotsMin is a fresh table's slot count, enough for a small
// cell's few thousand entries without growing.
const valueMemoSlotsMin = 1 << 12

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
	if vm.n >= vm.limit {
		clear(vm.slots)
		vm.n, vm.nodes = 0, rootNode
	}
	return rootNode
}

// child returns the node of the prefix node extended by winner q with
// decision code code, creating it if new.
func (vm *valueMemo) child(node uint32, q int, code uint64) uint32 {
	key := prefixTag | memoKey(node, q, code)
	i, ok := vm.find(key)
	if ok {
		return uint32(vm.slots[i].p)
	}
	vm.nodes++
	vm.insert(i, key, float64(vm.nodes), 0)
	return vm.nodes
}

// find returns the slot holding key and true, or the empty slot where key
// belongs and false.
func (vm *valueMemo) find(key uint64) (int, bool) {
	if vm.slots == nil {
		vm.resize(valueMemoSlotsMin)
	}
	mask := len(vm.slots) - 1
	i := int((key * 0x9e3779b97f4a7c15) >> vm.shift)
	for {
		k := vm.slots[i].key
		if k == key {
			return i, true
		}
		if k == 0 {
			return i, false
		}
		i = (i + 1) & mask
	}
}

// insert stores key, which find just reported missing at slot i, doubling
// the slot array first when it would pass three quarters full.
func (vm *valueMemo) insert(i int, key uint64, p, e float64) {
	if 4*(vm.n+1) > 3*len(vm.slots) {
		vm.resize(2 * len(vm.slots))
		i, _ = vm.find(key)
	}
	vm.slots[i] = memoSlot{key: key, p: p, e: e}
	vm.n++
}

// resize moves the entries into a new slot array of the given
// power-of-two size.
func (vm *valueMemo) resize(size int) {
	old := vm.slots
	vm.slots = make([]memoSlot, size)
	vm.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.key != 0 {
			i, _ := vm.find(s.key)
			vm.slots[i] = s
		}
	}
}

// valueAt returns the Value of the value entry in slot i.
func (vm *valueMemo) valueAt(i int) Value {
	return Value{P: vm.slots[i].p, E: vm.slots[i].e}
}

// Package flat is the module's uint64-keyed hash table: open addressing
// with linear probing over a power-of-two slot array, indexed by a
// multiplicative (Fibonacci) hash of the key. Key 0 marks an empty slot,
// so callers keep it out of the table (the analytic memo sends the empty
// set's word elsewhere; the batch's candidate-Value memo never forms it).
// The table never deletes single keys, only empties whole (Reset), and
// nothing reads it in slot order, so iteration order is never observable.
//
// A Table is confined to one goroutine, like every memo that holds one.
package flat

import "math/bits"

// Table maps nonzero uint64 keys to values of type V. The zero Table is
// not ready: make one with New.
type Table[V any] struct {
	slots []slot[V]
	n     int  // entries held
	shift uint // 64 - log2(len(slots))
	min   int  // slot count of the first allocation
}

type slot[V any] struct {
	key uint64
	val V
}

// New returns an empty table whose slot array, allocated on the first
// Put, starts at minSlots (a power of two) and doubles whenever an
// insertion would pass three quarters full.
func New[V any](minSlots int) Table[V] {
	if minSlots < 1 || minSlots&(minSlots-1) != 0 {
		panic("flat: slot count must be a positive power of two")
	}
	return Table[V]{min: minSlots}
}

// Len returns the number of entries held.
func (t *Table[V]) Len() int { return t.n }

// Get returns key's value and true, or the zero V and false.
func (t *Table[V]) Get(key uint64) (V, bool) {
	if t.n > 0 {
		if s := &t.slots[t.find(key)]; s.key != 0 {
			return s.val, true
		}
	}
	var zero V
	return zero, false
}

// Put stores (or replaces) key's value. key must not be 0.
func (t *Table[V]) Put(key uint64, v V) {
	if key == 0 {
		panic("flat: key 0 is the empty-slot mark")
	}
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	s := &t.slots[t.find(key)]
	if s.key == 0 {
		s.key = key
		t.n++
	}
	s.val = v
}

// Reset empties the table, keeping its slot array.
func (t *Table[V]) Reset() {
	clear(t.slots)
	t.n = 0
}

// find returns the index of key's slot: the slot holding it, or the empty
// slot where it belongs. The table must have slots.
func (t *Table[V]) find(key uint64) int {
	mask := len(t.slots) - 1
	i := int((key * 0x9e3779b97f4a7c15) >> t.shift)
	for {
		if k := t.slots[i].key; k == key || k == 0 {
			return i
		}
		i = (i + 1) & mask
	}
}

// grow moves the entries into a slot array twice as large (the first one
// of t.min slots).
func (t *Table[V]) grow() {
	old := t.slots
	size := max(2*len(old), t.min)
	t.slots = make([]slot[V], size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.key != 0 {
			t.slots[t.find(s.key)] = s
		}
	}
}

package flat

import "testing"

// golden is the table's hash multiplier; goldenInv its inverse modulo
// 2⁶⁴, so key = h·goldenInv hashes to exactly h before the shift.
const golden = 0x9e3779b97f4a7c15

var goldenInv = func() uint64 {
	inv := uint64(golden) // Newton's iteration doubles the correct low bits
	for i := 0; i < 5; i++ {
		inv *= 2 - golden*inv
	}
	return inv
}()

// keyOf maps a fuzz byte to a key: 0 for byte 0 (never stored), small
// distinct keys for bytes below 128, and keys whose hashes share their top
// 16 bits, so they probe from one home slot in every table up to 2¹⁶
// slots, for the rest.
func keyOf(b byte) uint64 {
	switch {
	case b == 0:
		return 0
	case b < 128:
		return uint64(b)
	default:
		return (0xa5a5<<48 | uint64(b)) * goldenInv
	}
}

// FuzzTable checks a Table differentially against a map: a pair of bytes
// is one operation (put, get or reset) on one key, and after each the
// key's entry and the entry count must agree, the table must be at most
// three quarters full, and at the end every entry must agree. Tables
// start at 4 slots, so a few dozen distinct keys grow them several times.
func FuzzTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 200, 1, 1, 1, 200, 255, 0, 1, 1})
	grow := make([]byte, 0, 2*300)
	for i := 0; i < 300; i++ {
		grow = append(grow, byte(2*i%254), byte(i*37+1))
	}
	f.Add(grow)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if keyOf(200)*golden>>48 != 0xa5a5 {
			t.Fatal("colliding keys do not share their top hash bits")
		}
		tab := New[uint64](4)
		oracle := map[uint64]uint64{}
		for i := 0; i+1 < len(ops); i += 2 {
			op, key := ops[i], keyOf(ops[i+1])
			switch {
			case op == 255:
				tab.Reset()
				clear(oracle)
			case op&1 == 0 && key != 0:
				tab.Put(key, uint64(i))
				oracle[key] = uint64(i)
			}
			got, ok := tab.Get(key)
			want, wok := oracle[key]
			if 4*tab.Len() > 3*len(tab.slots) {
				t.Fatalf("op %d: %d entries in %d slots, past three quarters full", i/2, tab.Len(), len(tab.slots))
			}
			if ok != wok || got != want || tab.Len() != len(oracle) {
				t.Fatalf("op %d key %#x: Get = (%d, %v), Len %d; map (%d, %v), len %d",
					i/2, key, got, ok, tab.Len(), want, wok, len(oracle))
			}
		}
		for k, want := range oracle {
			if got, ok := tab.Get(k); !ok || got != want {
				t.Fatalf("key %#x: Get = (%d, %v), map %d", k, got, ok, want)
			}
		}
	})
}

// TestPutKeyZeroPanics: key 0 marks empty slots and is refused.
func TestPutKeyZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put(0) did not panic")
		}
	}()
	tab := New[int](8)
	tab.Put(0, 1)
}

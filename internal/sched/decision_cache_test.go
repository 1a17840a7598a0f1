package sched

import (
	"testing"

	"tightsched/internal/app"
	"tightsched/internal/markov"
)

// cacheView builds a view of p processors whose states and retention are
// drawn from seed by a small xorshift generator, so that equal (p, seed)
// pairs compose equal keys and the key space stays small enough to
// repeat.
func cacheView(p int, seed uint64) *View {
	v := &View{
		States:  make([]markov.State, p),
		Workers: make([]WorkerInfo, p),
		Elapsed: int64(seed % 7),
	}
	x := seed*0x9e3779b97f4a7c15 | 1
	for q := range v.States {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v.States[q] = markov.State(x % 3)
		v.Workers[q] = WorkerInfo{HasProgram: x>>8&1 == 1, DataHeld: int(x >> 16 % 300)}
	}
	return v
}

// cacheOracle is the DecisionCache's reference model: a Go map keyed by
// the composed key, cleared on overflow exactly as the cache is.
type cacheOracle struct {
	entries      map[string]app.Assignment
	hits, misses uint64
}

func (o *cacheOracle) lookup(key []byte) (app.Assignment, bool) {
	asg, ok := o.entries[string(key)]
	if ok {
		o.hits++
	} else {
		o.misses++
	}
	return asg, ok
}

func (o *cacheOracle) store(key []byte, asg app.Assignment) {
	if len(o.entries) >= decisionCacheLimit {
		clear(o.entries)
	}
	o.entries[string(key)] = asg
}

func (o *cacheOracle) check(t *testing.T, dc *DecisionCache, step int) {
	t.Helper()
	st := dc.Stats()
	if st.Hits != o.hits || st.Misses != o.misses || st.Classes != len(o.entries) {
		t.Fatalf("step %d: stats hits %d misses %d classes %d, oracle %d %d %d",
			step, st.Hits, st.Misses, st.Classes, o.hits, o.misses, len(o.entries))
	}
}

// sameAssignment reports whether two cached builds are the same value:
// both nil, or the same backing array (callers share one slice).
func sameAssignment(a, b app.Assignment) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return len(a) == len(b) && &a[0] == &b[0]
}

// FuzzDecisionCache is the differential test of the flat table against a
// map: every operation byte triple is one lookup — of a view picked by
// (criterion, size, seed) — followed, when it misses and the operation
// says so, by a store. Hit or miss, the value returned and Stats must
// agree with the oracle after every step.
func FuzzDecisionCache(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 5, 1, 0x09, 5, 2, 0x00, 5, 1, 0x03, 5, 1, 0x00, 5, 2})
	seed := make([]byte, 0, 3*1200)
	for i := 0; i < 1200; i++ {
		// 600 stores of 586 distinct keys (small views collide), which
		// double the slot array five times, then lookups of the same
		// views, now hits.
		j := i % 600
		seed = append(seed, byte(j%4)<<1|byte(1-i/600), byte(j%40), byte(j/4))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		values := make([]app.Assignment, 8)
		for i := 1; i < len(values); i++ {
			values[i] = app.Assignment{i}
		}
		dc := NewDecisionCache()
		o := &cacheOracle{entries: make(map[string]app.Assignment)}
		for step := 0; len(data) >= 3; step++ {
			op, p, s := data[0], int(data[1]%48)+1, uint64(data[2])
			data = data[3:]
			got, ok := dc.lookup(nil, Criterion(op>>1%4), cacheView(p, s))
			want, wok := o.lookup(dc.key)
			if ok != wok || !sameAssignment(got, want) {
				t.Fatalf("step %d: lookup (%v, %v), oracle (%v, %v)", step, got, ok, want, wok)
			}
			if op&1 == 1 && !ok {
				asg := values[op>>3%8]
				o.store(dc.key, asg)
				dc.store(asg)
			}
			o.check(t, dc, step)
		}
	})
}

// TestDecisionCacheOverflowClears fills the table past decisionCacheLimit:
// the store that finds it full empties it first, so Classes drops to one,
// every earlier key misses and the new one hits. Refilling after the
// clear reuses the key arena instead of growing it.
func TestDecisionCacheOverflowClears(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a quarter-million-entry table")
	}
	dc := NewDecisionCache()
	v := &View{States: make([]markov.State, 20), Workers: make([]WorkerInfo, 20)}
	view := func(i int) *View {
		// Distinct keys: processor q holds digit q of i in base 4.
		for q := range v.Workers {
			v.Workers[q].DataHeld = i >> (2 * q) & 3
		}
		return v
	}
	asg := app.Assignment{1}
	for i := 0; i < decisionCacheLimit; i++ {
		if _, ok := dc.lookup(nil, CritE, view(i)); ok {
			t.Fatalf("key %d hit before it was stored", i)
		}
		dc.store(asg)
	}
	if got := dc.Stats().Classes; got != decisionCacheLimit {
		t.Fatalf("full table holds %d classes, want %d", got, decisionCacheLimit)
	}
	pages := len(dc.pages)
	if _, ok := dc.lookup(nil, CritE, view(decisionCacheLimit)); ok {
		t.Fatal("overflowing key hit before it was stored")
	}
	dc.store(asg)
	if got := dc.Stats().Classes; got != 1 {
		t.Fatalf("after overflow the table holds %d classes, want 1", got)
	}
	occupied := 0
	for _, s := range dc.slots {
		if s != 0 {
			occupied++
		}
	}
	if occupied != 1 {
		t.Fatalf("after overflow %d slots are occupied, want 1", occupied)
	}
	if _, ok := dc.lookup(nil, CritE, view(decisionCacheLimit)); !ok {
		t.Fatal("overflowing key missed after its store")
	}
	for _, i := range []int{0, 1, decisionCacheLimit / 2, decisionCacheLimit - 1} {
		if _, ok := dc.lookup(nil, CritE, view(i)); ok {
			t.Fatalf("key %d survived the overflow clear", i)
		}
	}
	for i := 0; i < decisionCacheLimit-1; i++ {
		if _, ok := dc.lookup(nil, CritE, view(i)); !ok {
			dc.store(asg)
		}
	}
	if got := len(dc.pages); got != pages {
		t.Fatalf("refill after the clear grew the key arena from %d to %d pages", pages, got)
	}
	st := dc.Stats()
	if st.Classes != decisionCacheLimit || st.Hits != 1 || st.Misses != 2*decisionCacheLimit+4 {
		t.Fatalf("stats %+v, want %d classes, 1 hit, %d misses", st, decisionCacheLimit, 2*decisionCacheLimit+4)
	}
}

// TestDecisionCacheLongKeys stores keys longer than a key page, each of
// which gets a page of its own, between short keys that fill pages: every
// key must read back intact.
func TestDecisionCacheLongKeys(t *testing.T) {
	dc := NewDecisionCache()
	o := &cacheOracle{entries: make(map[string]app.Assignment)}
	long := keyPageSize + 100 // a view of p processors composes a key of more than p bytes
	for round := 0; round < 2; round++ {
		for i := 0; i < 2000; i++ {
			p := 1 + i%40
			if i%500 == 7 {
				p = long + i
			}
			got, ok := dc.lookup(nil, CritP, cacheView(p, uint64(i)))
			want, wok := o.lookup(dc.key)
			if ok != wok || !sameAssignment(got, want) {
				t.Fatalf("round %d key %d: lookup (%v, %v), oracle (%v, %v)", round, i, got, ok, want, wok)
			}
			if !ok {
				asg := app.Assignment{i}
				o.store(dc.key, asg)
				dc.store(asg)
			}
		}
		o.check(t, dc, round)
	}
}

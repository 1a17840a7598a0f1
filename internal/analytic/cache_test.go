package analytic

import (
	"math"
	"testing"

	"tightsched/internal/markov"
	"tightsched/internal/rng"
)

// randomValidMatrix draws an availability matrix from a wider space than
// the paper's (self-loops in [0.5, 0.999)), so the differential tests see
// eigenvalue ranges the sweeps never generate.
func randomValidMatrix(s *rng.Stream) markov.Matrix {
	return markov.PerState(s.Uniform(0.5, 0.999), s.Uniform(0.5, 0.999), s.Uniform(0.5, 0.999))
}

func randomMembers(s *rng.Stream, p, n int) []int {
	perm := make([]int, p)
	for i := range perm {
		perm[i] = i
	}
	for i := p - 1; i > 0; i-- {
		j := int(s.Uint64() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:n]
}

// TestMemoBitIdenticalToUncached is the differential property test of the
// memo table: for randomized valid matrices and random sets, StatsOf with
// memoization on must be bit-identical to the memo-disabled evaluation,
// and repeated (hit-path) evaluations must be bit-identical to the first.
func TestMemoBitIdenticalToUncached(t *testing.T) {
	s := rng.New(101)
	for trial := 0; trial < 40; trial++ {
		p := 3 + int(s.Uint64()%18)
		ms := make([]markov.Matrix, p)
		for i := range ms {
			ms[i] = randomValidMatrix(s)
		}
		cached := NewPlatform(ms, DefaultEps)
		uncached := NewPlatformWith(ms, DefaultEps, Options{DisableMemo: true})
		for set := 0; set < 10; set++ {
			n := 1 + int(s.Uint64()%uint64(p))
			members := randomMembers(s, p, n)
			insertionSortInts(members)
			got := cached.StatsOf(members)
			if again := cached.StatsOf(members); got != again {
				t.Fatalf("trial %d set %v: hit %v != miss %v", trial, members, again, got)
			}
			want := uncached.StatsOf(members)
			if got != want {
				t.Fatalf("trial %d set %v: cached %v != uncached %v", trial, members, got, want)
			}
		}
	}
}

// TestMemoCanonicalAcrossInsertionOrders verifies that a memoized value
// is a pure function of membership: evaluating the same set through
// SetEvals built in different insertion orders returns bit-identical
// stats (both resolve to the canonical sorted-order computation).
func TestMemoCanonicalAcrossInsertionOrders(t *testing.T) {
	s := rng.New(102)
	for trial := 0; trial < 30; trial++ {
		p := 4 + int(s.Uint64()%12)
		ms := make([]markov.Matrix, p)
		for i := range ms {
			ms[i] = randomValidMatrix(s)
		}
		pl := NewPlatform(ms, DefaultEps)
		n := 2 + int(s.Uint64()%uint64(p-1))
		order1 := randomMembers(s, p, n)
		order2 := append([]int(nil), order1...)
		for i, j := 0, len(order2)-1; i < j; i, j = i+1, j-1 {
			order2[i], order2[j] = order2[j], order2[i]
		}
		se1, se2 := pl.NewSetEval(), pl.NewSetEval()
		for _, q := range order1 {
			se1.Add(q)
		}
		for _, q := range order2 {
			se2.Add(q)
		}
		if a, b := se1.Stats(), se2.Stats(); a != b {
			t.Fatalf("trial %d: order %v gives %v, order %v gives %v", trial, order1, a, order2, b)
		}
		// A cold evaluator's CandidateStats must agree with membership too.
		se3 := pl.NewSetEval()
		for _, q := range order1[:n-1] {
			se3.Add(q)
		}
		if a, b := se3.CandidateStats(order1[n-1]), se1.Stats(); a != b {
			t.Fatalf("trial %d: CandidateStats %v != Stats %v", trial, a, b)
		}
	}
}

// TestPowCachesBitIdentical verifies both exponentiation memo layers
// (the platform PowPplus map and the per-entry power ring, including
// ring eviction) against direct math.Pow.
func TestPowCachesBitIdentical(t *testing.T) {
	pl := paperPlatform(7, 6)
	st := pl.StatsOf([]int{0, 2, 4})
	for pass := 0; pass < 2; pass++ {
		// 8 distinct exponents overflow the 4-slot ring, exercising
		// eviction on the second pass.
		for k := 1; k <= 8; k++ {
			want := math.Pow(st.Pplus, float64(k))
			if got := pl.PowPplus(st.Pplus, k); got != want {
				t.Fatalf("PowPplus(%d) = %v, want %v", k, got, want)
			}
			se := pl.NewSetEval()
			for _, q := range []int{0, 2, 4} {
				se.Add(q)
			}
			gotSt, gotPow := se.StatsPow(k + 1)
			if gotSt != st || gotPow != want {
				t.Fatalf("StatsPow(%d) = (%v, %v), want (%v, %v)", k+1, gotSt, gotPow, st, want)
			}
		}
	}
}

// TestPlatformCacheReuse pins the cross-run platform cache contract:
// identical matrix sets share one platform, different eps/options/sets do
// not, and a shared platform returns bit-identical statistics.
func TestPlatformCacheReuse(t *testing.T) {
	s := rng.New(104)
	ms := make([]markov.Matrix, 5)
	for i := range ms {
		ms[i] = paperMatrix(s)
	}
	c := NewPlatformCache()
	a := c.Get(ms, DefaultEps, Options{})
	if b := c.Get(ms, DefaultEps, Options{}); b != a {
		t.Fatal("identical matrix set did not reuse the platform")
	}
	if b := c.Get(ms, 1e-6, Options{}); b == a {
		t.Fatal("different eps reused the platform")
	}
	if b := c.Get(ms, DefaultEps, Options{DisableMemo: true}); b == a {
		t.Fatal("different options reused the platform")
	}
	ms2 := append([]markov.Matrix(nil), ms...)
	ms2[3] = paperMatrix(s)
	if b := c.Get(ms2, DefaultEps, Options{}); b == a {
		t.Fatal("different matrices reused the platform")
	}
	want := a.StatsOf([]int{0, 1, 4})
	if got := c.Get(ms, DefaultEps, Options{}).StatsOf([]int{0, 1, 4}); got != want {
		t.Fatalf("warmed platform returned %v, want %v", got, want)
	}
}

// TestSetKeyHighProcessors exercises the >64-processor key path: sets
// spanning the inline word and the packed string must memoize and match
// the uncached evaluation.
func TestSetKeyHighProcessors(t *testing.T) {
	s := rng.New(105)
	const p = 130
	ms := make([]markov.Matrix, p)
	for i := range ms {
		ms[i] = paperMatrix(s)
	}
	cached := NewPlatform(ms, DefaultEps)
	uncached := NewPlatformWith(ms, DefaultEps, Options{DisableMemo: true})
	members := []int{3, 70, 128}
	got := cached.StatsOf(members)
	if again := cached.StatsOf(members); got != again {
		t.Fatalf("high-proc hit %v != miss %v", again, got)
	}
	if want := uncached.StatsOf(members); got != want {
		t.Fatalf("high-proc cached %v != uncached %v", got, want)
	}
	k1 := keyOfMembers([]int{3, 70, 128})
	k2 := keyOfMembers([]int{128, 3, 70})
	if k1 != k2 {
		t.Fatal("key depends on member order")
	}
	if k3 := keyOfMembers([]int{3, 70}); k3 == k1 {
		t.Fatal("distinct sets share a key")
	}
}

// TestMemoTableAgainstMap drives the memo's lookup and store with keys
// from a small pseudo-random space — 0 (the empty set) and keys beyond
// the 64-processor word among them — against a map oracle with the same
// clear-on-overflow rule. Entries, values and MemoStats must agree after
// every step, through several slot-array doublings and, past memoLimit,
// the overflow clear.
func TestMemoTableAgainstMap(t *testing.T) {
	pl := NewPlatform([]markov.Matrix{markov.PerState(0.9, 0.9, 0.9)}, DefaultEps)
	oracle := make(map[SetKey]float64)
	var hits, misses uint64
	s := rng.New(106)
	clears := 0
	for step := 0; step < 3*memoLimit; step++ {
		var k SetKey
		switch r := s.Uint64() % 64; {
		case r == 0:
			// The empty set's word, 0, is a key like any other.
		case r == 1:
			k = keyOfMembers([]int{int(s.Uint64() % 4), 64 + int(s.Uint64()%4)})
		default:
			// A space of about 1.5 memoLimit keys, so the table both
			// hits and overflows.
			k.lo = (s.Uint64() % (memoLimit * 3 / 2)) * 0x9e3779b97f4a7c15
		}
		want, wok := oracle[k]
		e := pl.memoLookup(k)
		if wok {
			hits++
		} else {
			misses++
		}
		if (e != nil) != wok || (wok && e.stats.Eu != want) {
			t.Fatalf("step %d key %v: entry %v, oracle (%v, %v)", step, k, e, want, wok)
		}
		if !wok {
			if len(oracle) >= memoLimit {
				clear(oracle)
				clears++
			}
			v := float64(step)
			oracle[k] = v
			if got := pl.memoStore(k, SetStats{Eu: v}); got.stats.Eu != v {
				t.Fatalf("step %d: store returned %v", step, got.stats)
			}
		}
		if st := pl.MemoStats(); st != (MemoStats{Hits: hits, Misses: misses, Entries: len(oracle)}) {
			t.Fatalf("step %d: MemoStats %+v, oracle hits %d misses %d entries %d", step, st, hits, misses, len(oracle))
		}
	}
	if clears == 0 {
		t.Fatal("the run never overflowed memoLimit")
	}
}

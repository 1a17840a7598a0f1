package analytic

import (
	"fmt"
	"math"

	"tightsched/internal/flat"
	"tightsched/internal/markov"
)

// Platform bundles the analytic state of every processor of a simulated
// platform. A Platform (and everything reachable from it) must be confined
// to a single goroutine: the per-processor Puu caches and the memo tables
// grow lazily and are not synchronized. Construction is cheap, so each
// concurrent simulation builds its own (or leases one from a
// PlatformCache).
type Platform struct {
	Procs []*Proc
	Eps   float64

	// horizons memoizes horizonFor by eigenvalue product. Products of the
	// per-processor eigenvalues recur bit-exactly across candidate
	// evaluations, so a plain map hits almost always.
	horizons map[float64]int

	// memoLo/memoHi map set membership to its canonical memo entry (both
	// empty when Options.DisableMemo). Repeated scorings of the same set
	// — across candidate loops, decision epochs and cache-shared runs —
	// return the stored floats instead of re-summing series. Sets
	// confined to processors 0..63 (every platform at the paper's scale)
	// live in a flat table keyed by the membership word, whose probe is
	// markedly cheaper than a map's; the rest, and the empty set, use a
	// map on the general SetKey (see SetKey.inLo). See computeStats for
	// the miss path.
	memoOn bool
	memoLo flat.Table[*memoEntry]
	memoHi map[SetKey]*memoEntry
	// memoHits/memoMisses count memoLookup outcomes (see MemoStats):
	// cross-trial sharing in the batch engine is observable through them.
	memoHits   uint64
	memoMisses uint64

	// powPplus memoizes (P⁺)^k by (base bits, k): the heuristics
	// exponentiate the same few set statistics at the same few workloads
	// every slot, and math.Pow is the single hottest call of a memoized
	// decision. Values are the cached results of math.Pow itself, so hits
	// are bit-identical to recomputation.
	powPplus map[powKey]float64

	// Scratch state of the canonical miss path (computeStats).
	canon          *SetEval
	scratchMembers []int
}

// powKey identifies one memoized exponentiation (P⁺ bit pattern, power).
type powKey struct {
	bits uint64
	k    int
}

// memoEntry is one memo-table value: the set's canonical statistics plus
// a small ring of memoized (P⁺)^k exponentiations. A set is scored at
// very few distinct workloads (its workload is fixed by the assignment
// shapes it appears in), so four inline slots cover the recurrences
// without per-entry allocation; misses pay one math.Pow and overwrite the
// oldest slot deterministically.
type memoEntry struct {
	stats   SetStats
	powW    [4]int // cached exponents k (0 marks an empty slot; k >= 1)
	powV    [4]float64
	powNext uint8 // ring insertion cursor
}

// powK returns stats.Pplus^k through the entry's power ring. Cached
// values are the stored results of math.Pow itself, so hits are
// bit-identical to recomputation.
func (e *memoEntry) powK(k int) float64 {
	if k <= 0 {
		return 1
	}
	for i := range e.powW {
		if e.powW[i] == k {
			return e.powV[i]
		}
	}
	v := math.Pow(e.stats.Pplus, float64(k))
	i := int(e.powNext) % len(e.powW)
	e.powW[i], e.powV[i] = k, v
	e.powNext++
	return v
}

// NewPlatform builds per-processor analytic state for the given
// availability matrices with series precision eps (use DefaultEps) and
// default Options (memoization on).
func NewPlatform(ms []markov.Matrix, eps float64) *Platform {
	return NewPlatformWith(ms, eps, Options{})
}

// NewPlatformWith is NewPlatform with explicit evaluation Options.
func NewPlatformWith(ms []markov.Matrix, eps float64, opts Options) *Platform {
	if eps <= 0 {
		panic("analytic: eps must be positive")
	}
	pl := &Platform{
		Procs:    make([]*Proc, len(ms)),
		Eps:      eps,
		horizons: make(map[float64]int),
		powPplus: make(map[powKey]float64),
	}
	if !opts.DisableMemo {
		pl.memoOn = true
		pl.memoLo = flat.New[*memoEntry](memoLoSlots)
		pl.memoHi = make(map[SetKey]*memoEntry)
	}
	for i, m := range ms {
		pl.Procs[i] = NewProc(m, eps)
	}
	return pl
}

// PowPplus returns pplus^k through the platform's exponentiation memo.
// k <= 0 yields 1 (matching math.Pow(x, 0) for the call sites' usage).
func (pl *Platform) PowPplus(pplus float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	key := powKey{math.Float64bits(pplus), k}
	if v, ok := pl.powPplus[key]; ok {
		return v
	}
	v := math.Pow(pplus, float64(k))
	if len(pl.powPplus) >= memoLimit {
		clear(pl.powPplus)
	}
	pl.powPplus[key] = v
	return v
}

// SetStats holds the Section V quantities of a worker set S.
type SetStats struct {
	// Eu is the expected number of simultaneous all-UP slots before the
	// first member failure (infinite if no member can fail).
	Eu float64
	// A is Σ t·Puu_S(t) (infinite if no member can fail).
	A float64
	// Pplus is P⁺(S), the probability all members are simultaneously UP
	// again before any goes DOWN.
	Pplus float64
	// Ec is the unconditioned expected gap length Σ t·P⁺(t).
	Ec float64
}

// ExpectedCompletion returns E(S)(W) in the renewal form
// 1 + (W−1)·Ec/P⁺: the expected number of slots for the set to accumulate
// W simultaneous compute slots, conditioned on no failure. W <= 0 yields 0.
func (s SetStats) ExpectedCompletion(w int) float64 {
	if w <= 0 {
		return 0
	}
	if s.Pplus <= 0 {
		return math.Inf(1)
	}
	return 1 + float64(w-1)*s.Ec/s.Pplus
}

// ExpectedCompletionPaper returns the formula exactly as printed in the
// paper, 1 + (W−1)·Ec/(P⁺)^{W−1}. Kept for the reproduction ablation; see
// the package comment and EXPERIMENTS.md.
func (s SetStats) ExpectedCompletionPaper(w int) float64 {
	if w <= 0 {
		return 0
	}
	if s.Pplus <= 0 {
		return math.Inf(1)
	}
	return 1 + float64(w-1)*s.Ec/math.Pow(s.Pplus, float64(w-1))
}

// ProbSuccess returns the probability that the set completes a workload of
// W compute slots without any member going DOWN: (P⁺)^{W−1}.
func (s SetStats) ProbSuccess(w int) float64 {
	if w <= 1 {
		return 1
	}
	return math.Pow(s.Pplus, float64(w-1))
}

func (s SetStats) String() string {
	return fmt.Sprintf("SetStats[Eu=%.4f A=%.4f P+=%.6f Ec=%.4f]", s.Eu, s.A, s.Pplus, s.Ec)
}

// SetEval incrementally evaluates worker sets. It is the workhorse of the
// incremental heuristics of Section VI: a configuration is built by adding
// one worker at a time, and at each step every UP worker is scored as a
// candidate. In series mode (memoization off, and the canonical miss path)
// it keeps the prefix products Π_{q∈S} Puu_q(t) so that
//
//   - Stats() for the current set is cached,
//   - CandidateStats(q) for q ∉ S costs one O(T) pass,
//   - Add(q) costs one O(T) pass.
//
// T is the truncation horizon derived from the paper's tail bound for the
// current Λ = Π λ1(q); it shrinks as members are added. With the memo
// table on (the default), evaluators skip the product maintenance
// entirely — Add is O(1) bookkeeping and Stats/CandidateStats are memo
// lookups, with misses computed canonically by Platform.computeStats.
type SetEval struct {
	plat    *Platform
	members []int
	inSet   []bool
	lambda  float64 // Π λ1 over members
	key     SetKey  // membership bitset, the memo-table key
	series  bool    // maintain prefix products (memo off, or canon)

	// prod[i] = Π_{q∈S} Puu_q(i+1) for i = 0..horizon-1 (series mode).
	prod []float64

	statsValid bool
	stats      SetStats
	entry      *memoEntry // memo entry of the current set (memo mode)
}

// NewSetEval returns an empty set evaluator over the platform.
func (pl *Platform) NewSetEval() *SetEval {
	return &SetEval{
		plat:   pl,
		inSet:  make([]bool, len(pl.Procs)),
		lambda: 1,
		series: !pl.memoOn,
	}
}

// newSeriesSetEval returns an evaluator that maintains prefix products
// regardless of memoization — the canonical miss path runs on one.
func (pl *Platform) newSeriesSetEval() *SetEval {
	se := pl.NewSetEval()
	se.series = true
	return se
}

// Reset empties the evaluator for reuse, keeping its buffers. It lets a
// heuristic rebuild configurations every slot without re-allocating.
func (se *SetEval) Reset() {
	for _, q := range se.members {
		se.inSet[q] = false
	}
	se.members = se.members[:0]
	se.prod = se.prod[:0]
	se.lambda = 1
	se.key = SetKey{}
	se.statsValid = false
	se.entry = nil
}

// Size returns the number of members in the set.
func (se *SetEval) Size() int { return len(se.members) }

// Members returns the member indices (shared slice; do not mutate).
func (se *SetEval) Members() []int { return se.members }

// Contains reports whether processor q is in the set.
func (se *SetEval) Contains(q int) bool { return se.inSet[q] }

// horizonFor returns a truncation horizon satisfying the tail bound for a
// set with eigenvalue product lambda. The binding constraint is the A-tail
// Λ^{T+1}·((T+1) + Λ/(1−Λ))/(1−Λ) <= ε, whose fixed point
//
//	T+1 = ln(ε(1−Λ)/((T+1) + Λ/(1−Λ))) / ln Λ
//
// converges in a few iterations from the Eu-tail solution; the result is
// verified (and nudged up if the iteration undershot) against the exact
// bound. This runs once per candidate evaluation, so it must be O(1).
func (se *SetEval) horizonFor(lambda float64) int {
	if lambda >= 1 {
		return MaxHorizon
	}
	if lambda <= 0 {
		return 1
	}
	if h, ok := se.plat.horizons[lambda]; ok {
		return h
	}
	h := computeHorizon(lambda, se.plat.Eps)
	if se.plat.horizons != nil {
		se.plat.horizons[lambda] = h
	}
	return h
}

func computeHorizon(lambda, eps float64) int {
	lnLam := math.Log(lambda)
	c := lambda / (1 - lambda)
	t := math.Log(eps*(1-lambda))/lnLam - 1 // Eu-tail solution
	for i := 0; i < 4; i++ {
		arg := eps * (1 - lambda) / (t + 1 + c)
		if arg <= 0 {
			return MaxHorizon
		}
		t = math.Log(arg)/lnLam - 1
	}
	horizon := int(math.Ceil(t))
	if horizon < 1 {
		horizon = 1
	}
	for horizon < MaxHorizon &&
		!seriesTailsBelow(math.Pow(lambda, float64(horizon)), lambda, horizon, eps) {
		horizon++
	}
	if horizon > MaxHorizon {
		horizon = MaxHorizon
	}
	return horizon
}

// Add inserts processor q into the set. It panics if q is already a member
// or out of range.
func (se *SetEval) Add(q int) {
	if q < 0 || q >= len(se.plat.Procs) {
		panic(fmt.Sprintf("analytic: Add(%d) out of range", q))
	}
	if se.inSet[q] {
		panic(fmt.Sprintf("analytic: Add(%d) already a member", q))
	}
	proc := se.plat.Procs[q]
	newLambda := se.lambda * proc.Lambda1()
	if se.series {
		horizon := se.horizonFor(newLambda)
		if len(se.members) == 0 {
			if cap(se.prod) >= horizon {
				se.prod = se.prod[:horizon]
			} else {
				se.prod = make([]float64, horizon)
			}
			for i := 0; i < horizon; i++ {
				se.prod[i] = proc.Puu(i + 1)
			}
		} else {
			if horizon > len(se.prod) {
				horizon = len(se.prod) // horizon never grows when adding members
			}
			se.prod = se.prod[:horizon]
			for i := 0; i < horizon; i++ {
				se.prod[i] *= proc.Puu(i + 1)
			}
		}
	}
	se.members = append(se.members, q)
	se.inSet[q] = true
	se.lambda = newLambda
	se.key = se.key.withBit(q)
	se.statsValid = false
	se.entry = nil
}

// Stats returns the Section V quantities of the current set. It panics on
// an empty set. With memoization on (the default), repeated evaluations
// of the same membership — whatever order it was built in, here or in any
// other evaluator of the platform — return the stored canonical floats.
func (se *SetEval) Stats() SetStats {
	if len(se.members) == 0 {
		panic("analytic: Stats of empty set")
	}
	if se.statsValid {
		return se.stats
	}
	if se.plat.memoOn {
		e := se.plat.memoLookup(se.key)
		if e == nil {
			e = se.plat.memoStore(se.key, se.plat.computeStats(se.members, -1))
		}
		se.entry, se.stats, se.statsValid = e, e.stats, true
		return e.stats
	}
	se.stats, se.statsValid = se.statsSeries(), true
	return se.stats
}

// StatsPow returns Stats() together with (P⁺)^{w−1}, the exponentiation
// shared by the success-probability and expected-completion metrics, from
// the set's memoized power ring.
func (se *SetEval) StatsPow(w int) (SetStats, float64) {
	st := se.Stats()
	if w <= 1 {
		return st, 1
	}
	if se.entry != nil {
		return st, se.entry.powK(w - 1)
	}
	return st, math.Pow(st.Pplus, float64(w-1))
}

// statsSeries evaluates the current set by the truncated series over the
// incrementally maintained prefix products, bypassing the memo table.
// This is the seed evaluation path; computeStats builds on it for the
// canonical miss path.
func (se *SetEval) statsSeries() SetStats {
	return se.statsFromSums(se.sums(nil))
}

// CandidateStats returns the Section V quantities of S ∪ {q} without
// modifying the set. If q is already a member it is equivalent to Stats.
// An empty set with candidate q returns the singleton statistics of q.
func (se *SetEval) CandidateStats(q int) SetStats {
	st, _ := se.candidateStats(q)
	return st
}

// CandidateStatsPow is CandidateStats plus (P⁺)^{w−1} from the candidate
// set's memoized power ring — the single-map-lookup fast path of the
// heuristics' candidate-scoring loop.
func (se *SetEval) CandidateStatsPow(q, w int) (SetStats, float64) {
	st, e := se.candidateStats(q)
	if w <= 1 {
		return st, 1
	}
	if e != nil {
		return st, e.powK(w - 1)
	}
	return st, math.Pow(st.Pplus, float64(w-1))
}

// candidateStats returns the statistics of S ∪ {q} plus the memo entry
// backing them (nil in memo-off mode and for the proc-constant singleton
// path).
func (se *SetEval) candidateStats(q int) (SetStats, *memoEntry) {
	if q < 0 || q >= len(se.plat.Procs) {
		panic(fmt.Sprintf("analytic: CandidateStats(%d) out of range", q))
	}
	if se.inSet[q] {
		st := se.Stats()
		return st, se.entry
	}
	proc := se.plat.Procs[q]
	if len(se.members) == 0 {
		// Singleton: closed-form constants are already cached on the proc.
		return SetStats{Eu: proc.eu, A: proc.a, Pplus: proc.pplus, Ec: proc.ec}, nil
	}
	if se.plat.memoOn {
		key := se.key.withBit(q)
		e := se.plat.memoLookup(key)
		if e == nil {
			e = se.plat.memoStore(key, se.plat.computeStats(se.members, q))
		}
		return e.stats, e
	}
	return se.statsFromSums(se.sums(proc)), nil
}

// sums computes (Eu, A, canFail) over the current set, multiplied by the
// optional extra candidate processor.
func (se *SetEval) sums(extra *Proc) (eu, a float64, canFail bool) {
	for _, q := range se.members {
		canFail = canFail || se.plat.Procs[q].CanFail()
	}
	horizon := len(se.prod)
	if extra != nil {
		canFail = canFail || extra.CanFail()
		if h := se.horizonFor(se.lambda * extra.Lambda1()); h < horizon {
			horizon = h
		}
		extra.Puu(horizon) // ensure cache is grown once, not per index
		for i := 0; i < horizon; i++ {
			v := se.prod[i] * extra.puuCache[i+1]
			eu += v
			a += float64(i+1) * v
		}
		return eu, a, canFail
	}
	for i := 0; i < horizon; i++ {
		v := se.prod[i]
		eu += v
		a += float64(i+1) * v
	}
	return eu, a, canFail
}

// statsFromSums derives P⁺ and Ec from Eu and A via the Theorem 5.1
// identities, handling the cannot-fail case (P⁺ = 1, Ec by convolution).
func (se *SetEval) statsFromSums(eu, a float64, canFail bool) SetStats {
	if !canFail {
		return SetStats{
			Eu:    math.Inf(1),
			A:     math.Inf(1),
			Pplus: 1,
			Ec:    firstReturnMean(se.puuSetFunc(), se.plat.Eps),
		}
	}
	pplus := eu / (1 + eu)
	return SetStats{
		Eu:    eu,
		A:     a,
		Pplus: pplus,
		Ec:    a * (1 - pplus) / (1 + eu),
	}
}

// puuSetFunc returns Puu_S(t) as a function, for the convolution fallback.
// Values beyond the stored horizon are recomputed from the member caches.
func (se *SetEval) puuSetFunc() func(int) float64 {
	return func(t int) float64 {
		if t == 0 {
			return 1
		}
		if t <= len(se.prod) {
			return se.prod[t-1]
		}
		v := 1.0
		for _, q := range se.members {
			v *= se.plat.Procs[q].Puu(t)
		}
		return v
	}
}

// StatsOf evaluates a whole set at once, through the memo table when
// enabled: only the first evaluation of a membership pays for series
// work, and every later one — from any call site of the platform —
// returns the identical stored floats.
func (pl *Platform) StatsOf(members []int) SetStats {
	if len(members) == 0 {
		panic("analytic: Stats of empty set")
	}
	if pl.memoOn {
		key := keyOfMembers(members)
		if e := pl.memoLookup(key); e != nil {
			return e.stats
		}
		return pl.memoStore(key, pl.computeStats(members, -1)).stats
	}
	se := pl.NewSetEval()
	for _, q := range members {
		se.Add(q)
	}
	return se.statsSeries()
}

// Package analytic implements Section V of Casanova, Dufossé, Robert and
// Vivien (HCW 2013): ε-approximations, under the 3-state Markov
// availability model, of
//
//   - P⁺(S): the probability that a set S of workers, all UP now, will all
//     be UP simultaneously again before any of them goes DOWN;
//   - E(S)(W): the expected number of time-slots for S to complete a
//     workload of W coupled compute slots, conditioned on success;
//   - the coarse communication-phase estimates E_comm(S) and P_comm(S) of
//     Section V.B, which account for the master's bounded multi-port
//     bandwidth constraint n_com.
//
// The core identities (proof of Theorem 5.1) are, writing
// Puu_S(t) = Π_{q∈S} P(q)_{u-t->u}:
//
//	Eu(S) = Σ_{t>0} Puu_S(t)            expected number of all-UP slots
//	                                    before the first failure,
//	A(S)  = Σ_{t>0} t·Puu_S(t),
//	P⁺(S) = Eu / (1 + Eu)               (= 1 if no member can fail),
//	Ec(S) = A·(1 − P⁺) / (1 + Eu)       unconditioned expected gap length.
//
// Series are truncated with the paper's geometric tail bound driven by
// Λ = Π_q λ1(q), the product of the dominant eigenvalues of the members'
// restricted live-state chains.
//
// Reproduction note: the paper prints E(S)(W) = 1 + (W−1)·Ec/(P⁺)^{W−1}.
// A renewal argument (every all-UP slot is a regeneration point of the
// joint chain) gives E(S)(W) = 1 + (W−1)·Ec/P⁺, which is what Monte-Carlo
// simulation confirms (see montecarlo_test.go). SetStats exposes both as
// ExpectedCompletion (renewal form, used by the heuristics) and
// ExpectedCompletionPaper (as printed).
package analytic

import (
	"fmt"
	"math"

	"tightsched/internal/markov"
)

// DefaultEps is the default series-truncation precision ε.
const DefaultEps = 1e-9

// MaxHorizon caps series horizons to keep degenerate chains (Λ → 1) from
// looping unboundedly. With the paper's parameter ranges the bound-derived
// horizon is far below this cap.
const MaxHorizon = 1 << 16

// Proc holds the per-processor analytic state: the restricted live-state
// chain, its dominant eigenvalue, the single-processor series constants in
// closed form, and a lazily grown cache of Puu(t) values used by set-level
// series.
type Proc struct {
	sub     *markov.SubChain
	canFail bool
	lam1    float64

	// Restricted live-state matrix entries, for the Puu recurrence.
	m00, m01, m10, m11 float64

	// Single-processor series constants ({q} as a singleton set).
	eu, a, ec, pplus float64

	// puuCache[t] = Puu(t); grown on demand by the 2x2 recurrence.
	puuCache []float64
	r0, r1   float64 // row vector e_u · M^T at T = len(puuCache)-1

	// surviveCache pages the quantized survival grid: grid point i lives
	// at surviveCache[i/survivePageLen][i%survivePageLen] and equals
	// SurviveReal(i/surviveGridStep). Heuristics evaluate survival at
	// fractional expected times inside tight loops; the grid avoids a
	// math.Pow per call. See SurviveQ.
	surviveCache []*survivePage

	// commCache[n] and commPaperCache[n] memoize ExpectedComm(n) and
	// ExpectedCommPaper(n): communication needs are small integers that
	// recur every candidate evaluation, and the paper form costs a
	// math.Pow per call. Grown on demand up to commCacheLimit.
	commCache      []float64
	commPaperCache []float64
}

// commCacheLimit bounds the communication-expectation caches; needs
// beyond it (far past any paper-scale Tprog + m·Tdata) fall through to
// direct evaluation.
const commCacheLimit = 1 << 12

// surviveGridStep is the resolution (points per slot) of the quantized
// survival cache. A quarter-slot grid changes survival values by well
// under the noise the Section V.B communication estimate already carries.
const surviveGridStep = 4

// survivePageLen is the number of grid points per survival-cache page
// (2 KB of float64s). The heuristics ask mostly at short horizons but at
// scattered indices far beyond them, so a large page holds mostly NaN:
// on quick Table I, 1,024- and 4,096-point pages raised peak RSS by a
// fifth and three quarters over 256, and 64 saved nothing
// (EXPERIMENTS.md, "Table I memory").
const survivePageLen = 256

// survivePage is one page of the survival grid; unvisited points hold
// NaN.
type survivePage [survivePageLen]float64

// NewProc builds the analytic state of one processor with availability
// matrix m, truncating its singleton series at precision eps.
func NewProc(m markov.Matrix, eps float64) *Proc {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	if eps <= 0 {
		panic("analytic: eps must be positive")
	}
	sub := markov.NewSubChain(m)
	p := &Proc{
		sub:      sub,
		canFail:  m.CanFail(),
		lam1:     sub.Lambda1(),
		m00:      m[markov.Up][markov.Up],
		m01:      m[markov.Up][markov.Reclaimed],
		m10:      m[markov.Reclaimed][markov.Up],
		m11:      m[markov.Reclaimed][markov.Reclaimed],
		puuCache: []float64{1},
		r0:       1,
		r1:       0,
	}
	p.computeSingletonConstants(eps)
	return p
}

// computeSingletonConstants sums Eu({q}) and A({q}) numerically with the
// geometric tail bound, then derives P⁺ and Ec from the closed identities.
func (p *Proc) computeSingletonConstants(eps float64) {
	if !p.canFail {
		// Eu diverges; P⁺ = 1 and Ec is the mean first-return-to-UP time
		// of the live-state chain, computed by the convolution method.
		p.pplus = 1
		p.eu = math.Inf(1)
		p.a = math.Inf(1)
		p.ec = firstReturnMean(p.Puu, eps)
		return
	}
	lam := p.lam1
	eu, a := 0.0, 0.0
	lamPow := 1.0
	for t := 1; t <= MaxHorizon; t++ {
		v := p.Puu(t)
		eu += v
		a += float64(t) * v
		lamPow *= lam
		if seriesTailsBelow(lamPow, lam, t, eps) {
			break
		}
	}
	p.eu = eu
	p.a = a
	p.pplus = eu / (1 + eu)
	p.ec = a * (1 - p.pplus) / (1 + eu)
}

// seriesTailsBelow reports whether the geometric tail bounds for both
// Σ Puu(t) and Σ t·Puu(t) past time t are below eps, given lamPow = λ^t.
// The bounds are Σ_{s>t} λ^s = λ^{t+1}/(1-λ) and
// Σ_{s>t} s·λ^s = λ^{t+1}·((t+1) + λ/(1-λ))/(1-λ).
func seriesTailsBelow(lamPow, lam float64, t int, eps float64) bool {
	if lam >= 1 {
		return false
	}
	tailEu := lamPow * lam / (1 - lam)
	tailA := lamPow * lam * (float64(t+1) + lam/(1-lam)) / (1 - lam)
	return tailEu < eps && tailA < eps
}

// Puu returns P(q)_{u-t->u} from the cache, extending it as needed.
func (p *Proc) Puu(t int) float64 {
	for t >= len(p.puuCache) {
		p.r0, p.r1 = p.r0*p.m00+p.r1*p.m10, p.r0*p.m01+p.r1*p.m11
		p.puuCache = append(p.puuCache, p.r0)
	}
	return p.puuCache[t]
}

// firstReturnMean computes Σ t·P⁺(t) for a set that cannot fail, where
// P⁺(t) is the first time all members are simultaneously UP again,
// obtained by the renewal convolution
//
//	P⁺(t) = Puu_S(t) − Σ_{0<t'<t} P⁺(t')·Puu_S(t−t').
//
// puuSet(t) must return Puu_S(t). The loop stops once the remaining
// probability mass is below eps (assigning it to the cutoff time) or at
// MaxHorizon.
func firstReturnMean(puuSet func(int) float64, eps float64) float64 {
	pplus := make([]float64, 1, 64) // pplus[0] unused
	mass, mean := 0.0, 0.0
	for t := 1; t <= MaxHorizon; t++ {
		v := puuSet(t)
		for tp := 1; tp < t; tp++ {
			v -= pplus[tp] * puuSet(t-tp)
		}
		if v < 0 {
			v = 0
		}
		pplus = append(pplus, v)
		mass += v
		mean += float64(t) * v
		if 1-mass < eps {
			mean += (1 - mass) * float64(t)
			return mean
		}
	}
	return mean
}

// CanFail reports whether the processor can reach DOWN from a live state.
func (p *Proc) CanFail() bool { return p.canFail }

// Lambda1 returns the dominant eigenvalue of the restricted chain.
func (p *Proc) Lambda1() float64 { return p.lam1 }

// Pplus returns P⁺({q}): the probability the processor, UP now, is UP
// again later without going DOWN in between.
func (p *Proc) Pplus() float64 { return p.pplus }

// Ec returns the unconditioned expected gap length of the singleton set.
func (p *Proc) Ec() float64 { return p.ec }

// Eu returns Eu({q}) (infinite when the processor cannot fail).
func (p *Proc) Eu() float64 { return p.eu }

// SurviveReal returns the probability of not visiting DOWN during t slots
// (t may be fractional; see markov.SubChain.SurviveReal).
func (p *Proc) SurviveReal(t float64) float64 { return p.sub.SurviveReal(t) }

// SurviveQ returns SurviveReal(t) quantized to a quarter-slot grid, with
// the grid values cached. It is the fast path used inside the heuristics'
// candidate-scoring loops, where exact fractional evaluation would spend
// most of its time in math.Pow.
func (p *Proc) SurviveQ(t float64) float64 {
	if t <= 0 {
		return 1
	}
	// Rounding t·surviveGridStep to the nearest point reaches the clamp
	// exactly when t >= MaxHorizon; testing t first keeps an infinite t
	// off the float-to-int conversion, and a NaN t from the page table.
	const maxIdx = MaxHorizon * surviveGridStep
	idx := maxIdx
	if t < MaxHorizon {
		idx = int(t*surviveGridStep + 0.5)
	} else if math.IsNaN(t) {
		panic("analytic: SurviveQ of NaN")
	}
	// The grid is sparse: it is paged, and a page is allocated — all NaN,
	// the not-yet-computed sentinel (SurviveReal is a probability, so NaN
	// is free) — only when a query first lands in it; the page table
	// itself grows only up to the largest page touched. Each grid point
	// pays its SurviveReal exactly once, on first use. Filling densely
	// instead would evaluate every quarter-slot point up to the largest
	// horizon ever asked, and a flat slice would hold one float64 per
	// point below it — the heuristics ask at scattered communication
	// horizons, so almost all of that work and memory would be wasted.
	pg, off := uint(idx)/survivePageLen, uint(idx)%survivePageLen
	for pg >= uint(len(p.surviveCache)) {
		p.surviveCache = append(p.surviveCache, nil)
	}
	page := p.surviveCache[pg]
	if page == nil {
		page = new(survivePage)
		for i := range page {
			page[i] = math.NaN()
		}
		p.surviveCache[pg] = page
	}
	v := &page[off]
	if math.IsNaN(*v) {
		*v = p.sub.SurviveReal(float64(idx) / surviveGridStep)
	}
	return *v
}

// ExpectedComm returns E^(Pq)(n): the expected number of slots for this
// worker, UP now, to complete n slots of communication with the master,
// conditioned on not going DOWN (Section V.B with S = {Pq}), in the
// renewal form. Zero when n <= 0. Values are memoized per n.
func (p *Proc) ExpectedComm(n int) float64 {
	if n <= 0 {
		return 0
	}
	if n < commCacheLimit {
		for n >= len(p.commCache) {
			k := len(p.commCache)
			p.commCache = append(p.commCache, 1+float64(k-1)*p.ec/p.pplus)
		}
		return p.commCache[n]
	}
	return 1 + float64(n-1)*p.ec/p.pplus
}

// ExpectedCommPaper is ExpectedComm with the paper's printed denominator
// (P⁺)^{n−1} (see SetStats.ExpectedCompletionPaper): the per-slot gap cost
// is divided by the probability that all n−1 remaining slots succeed, so
// the estimate grows rapidly for unreliable workers with large transfers.
// Values are memoized per n — the math.Pow is paid once per need size.
func (p *Proc) ExpectedCommPaper(n int) float64 {
	if n <= 0 {
		return 0
	}
	if n < commCacheLimit {
		for n >= len(p.commPaperCache) {
			k := len(p.commPaperCache)
			p.commPaperCache = append(p.commPaperCache,
				1+float64(k-1)*p.ec/math.Pow(p.pplus, float64(k-1)))
		}
		return p.commPaperCache[n]
	}
	return 1 + float64(n-1)*p.ec/math.Pow(p.pplus, float64(n-1))
}

func (p *Proc) String() string {
	return fmt.Sprintf("Proc[λ1=%.6f P+=%.6f Ec=%.4f canFail=%v]", p.lam1, p.pplus, p.ec, p.canFail)
}

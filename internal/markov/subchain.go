package markov

import (
	"fmt"
	"math"
)

// SubChain is the 2x2 restriction of a 3-state availability chain to the
// live states {UP, RECLAIMED}, i.e. the sub-stochastic matrix
//
//	M = | P(u,u)  P(u,r) |
//	    | P(r,u)  P(r,r) |
//
// Powers of M give the paper's two workhorse quantities for a processor
// that is UP at time 0:
//
//	PuuT(t)    = (M^t)[u][u]       probability of being UP at time t
//	                               without visiting DOWN in between,
//	SurviveT(t) = sum((M^t)[u][·])  probability of not visiting DOWN
//	                               during t slots.
//
// Because M is a real 2x2 matrix with non-negative off-diagonal product,
// its eigenvalues are real, and both quantities have the closed form
// a·λ1^t + b·λ2^t. SubChain precomputes the eigendecomposition so each
// evaluation is O(1); a degenerate (defective) matrix falls back to the
// λ^t·(a + b·t) form.
type SubChain struct {
	m [2][2]float64

	// Eigenvalues, lam1 >= lam2 in absolute value ordering by real size.
	lam1, lam2 float64
	defective  bool // lam1 == lam2 and M not diagonalizable

	// PuuT(t) = puuA*lam1^t + puuB*lam2^t (or (puuA + puuB*t)*lam1^t when
	// defective); likewise for SurviveT.
	puuA, puuB float64
	surA, surB float64
}

// eigTol decides when two eigenvalues are considered equal.
const eigTol = 1e-12

// NewSubChain builds the restricted live-state chain of m.
func NewSubChain(full Matrix) *SubChain {
	var s SubChain
	s.m[0][0] = full[Up][Up]
	s.m[0][1] = full[Up][Reclaimed]
	s.m[1][0] = full[Reclaimed][Up]
	s.m[1][1] = full[Reclaimed][Reclaimed]
	s.decompose()
	return &s
}

// decompose computes eigenvalues and the closed-form coefficients.
//
// For a 2x2 matrix M = [[a,b],[c,d]] with distinct eigenvalues λ1, λ2,
// Lagrange interpolation on the spectrum gives
//
//	M^t = λ1^t (M - λ2 I)/(λ1-λ2) + λ2^t (M - λ1 I)/(λ2-λ1)
//
// so (M^t)[0][0] = ((a-λ2) λ1^t - (a-λ1) λ2^t) / (λ1-λ2) and the first
// row sum is (((a+b)-λ2) λ1^t - ((a+b)-λ1) λ2^t) / (λ1-λ2).
func (s *SubChain) decompose() {
	a, b := s.m[0][0], s.m[0][1]
	c, d := s.m[1][0], s.m[1][1]
	tr := a + d
	// For real matrices with b*c >= 0 the discriminant is non-negative.
	disc := (a-d)*(a-d) + 4*b*c
	if disc < 0 {
		// Cannot happen for availability chains (b, c >= 0), but guard
		// against caller-constructed matrices.
		disc = 0
	}
	root := math.Sqrt(disc)
	s.lam1 = (tr + root) / 2
	s.lam2 = (tr - root) / 2

	if math.Abs(s.lam1-s.lam2) > eigTol {
		den := s.lam1 - s.lam2
		s.puuA = (a - s.lam2) / den
		s.puuB = -(a - s.lam1) / den
		row := a + b
		s.surA = (row - s.lam2) / den
		s.surB = -(row - s.lam1) / den
		return
	}
	// Repeated eigenvalue λ. If M == λI the chain is already diagonal;
	// otherwise M is defective and M^t = λ^t I + t λ^(t-1) (M - λI).
	lam := s.lam1
	if math.Abs(b) < eigTol && math.Abs(c) < eigTol && math.Abs(a-d) < eigTol {
		s.puuA, s.puuB = 1, 0
		s.surA, s.surB = 1, 0
		return
	}
	s.defective = true
	// (M^t)[0][0] = λ^t + t λ^(t-1) (a - λ); fold the 1/λ into the slope
	// when λ > 0. For λ == 0 powers beyond t=1 vanish.
	s.puuA = 1
	s.surA = 1
	if lam > eigTol {
		s.puuB = (a - lam) / lam
		s.surB = (a + b - lam) / lam
	}
}

// Lambda1 returns the dominant eigenvalue of the restricted chain. It is
// the geometric decay rate of both PuuT and SurviveT and drives the
// truncation horizon of the paper's series (Theorem 5.1).
func (s *SubChain) Lambda1() float64 { return s.lam1 }

// PuuT returns P(q)_{u->t->u}: the probability that a processor UP at time
// 0 is UP at time t without having been DOWN in between. PuuT(0) = 1.
func (s *SubChain) PuuT(t int) float64 {
	if t < 0 {
		panic("markov: PuuT with negative t")
	}
	if t == 0 {
		return 1
	}
	return clampProb(s.eval(s.puuA, s.puuB, float64(t)))
}

// SurviveT returns the probability that a processor UP at time 0 has not
// been DOWN during slots 1..t. SurviveT(0) = 1.
func (s *SubChain) SurviveT(t int) float64 {
	if t < 0 {
		panic("markov: SurviveT with negative t")
	}
	if t == 0 {
		return 1
	}
	return clampProb(s.eval(s.surA, s.surB, float64(t)))
}

// SurviveReal evaluates the survival closed form at a non-negative real
// time, interpolating the discrete curve geometrically. The paper's
// communication-phase estimate plugs the (generally fractional) expected
// communication time into this survival function.
func (s *SubChain) SurviveReal(t float64) float64 {
	if t < 0 {
		panic("markov: SurviveReal with negative t")
	}
	if t == 0 {
		return 1
	}
	return clampProb(s.eval(s.surA, s.surB, t))
}

func (s *SubChain) eval(ca, cb, t float64) float64 {
	if s.defective {
		if s.lam1 <= eigTol {
			// Nilpotent: only the t=1 step can be non-zero, handled by
			// the explicit matrix entries.
			if t == 1 {
				return ca*s.lam1 + cb // degenerate; keep continuous
			}
			return 0
		}
		return math.Pow(s.lam1, t) * (ca + cb*t)
	}
	v := ca * powSigned(s.lam1, t)
	if cb != 0 {
		v += cb * powSigned(s.lam2, t)
	}
	return v
}

// powSigned computes lam^t for possibly negative lam at integral or real t.
// The restricted chain can have a negative subdominant eigenvalue; for
// integral t the sign alternates, while for fractional t we use the
// magnitude (the fractional evaluation is only used for smooth survival
// interpolation where the subdominant term is negligible).
func powSigned(lam, t float64) float64 {
	if lam >= 0 {
		return math.Pow(lam, t)
	}
	ti := math.Round(t)
	if math.Abs(t-ti) < 1e-9 {
		v := math.Pow(-lam, t)
		if int64(ti)&1 == 1 {
			return -v
		}
		return v
	}
	return math.Pow(-lam, t) // magnitude envelope for fractional t
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// PowerRef computes (M^t)[0][0] and the first-row sum of M^t by direct
// iteration. It exists to cross-validate the closed forms in tests and for
// callers that prefer exactness over speed.
func (s *SubChain) PowerRef(t int) (puu, survive float64) {
	if t < 0 {
		panic("markov: PowerRef with negative t")
	}
	// Row vector e_u * M^t.
	r0, r1 := 1.0, 0.0
	for i := 0; i < t; i++ {
		r0, r1 = r0*s.m[0][0]+r1*s.m[1][0], r0*s.m[0][1]+r1*s.m[1][1]
	}
	return r0, r0 + r1
}

// String formats the restricted chain for debugging.
func (s *SubChain) String() string {
	return fmt.Sprintf("SubChain[[%.4f %.4f][%.4f %.4f] λ=%.6f,%.6f]",
		s.m[0][0], s.m[0][1], s.m[1][0], s.m[1][1], s.lam1, s.lam2)
}

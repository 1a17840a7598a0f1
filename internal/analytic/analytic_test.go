package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"tightsched/internal/markov"
	"tightsched/internal/rng"
)

func paperMatrix(s *rng.Stream) markov.Matrix {
	return markov.PerState(s.Uniform(0.90, 0.99), s.Uniform(0.90, 0.99), s.Uniform(0.90, 0.99))
}

func paperPlatform(seed uint64, p int) *Platform {
	s := rng.New(seed)
	ms := make([]markov.Matrix, p)
	for i := range ms {
		ms[i] = paperMatrix(s)
	}
	return NewPlatform(ms, DefaultEps)
}

func TestProcPuuMatchesSubChain(t *testing.T) {
	s := rng.New(1)
	for trial := 0; trial < 30; trial++ {
		m := paperMatrix(s)
		proc := NewProc(m, DefaultEps)
		sc := markov.NewSubChain(m)
		for tt := 0; tt <= 300; tt += 13 {
			want := sc.PuuT(tt)
			if got := proc.Puu(tt); math.Abs(got-want) > 1e-9 {
				t.Fatalf("Puu(%d) = %v, want %v", tt, got, want)
			}
		}
	}
}

// TestSurviveQPagedGrid: the paged survival grid returns, bit for bit,
// the SurviveReal of a fresh processor at the quantized time — at 0, on
// both sides of page boundaries, at the MaxHorizon clamp and for t <= 0 —
// whatever order the points are first asked in, and a lone query near
// MaxHorizon allocates one page, not the grid below it. A NaN t panics.
func TestSurviveQPagedGrid(t *testing.T) {
	const maxIdx = MaxHorizon * surviveGridStep
	idxs := []int{0, 1, survivePageLen - 1, survivePageLen, survivePageLen + 1,
		3*survivePageLen - 1, 3 * survivePageLen, 4099, maxIdx - survivePageLen,
		maxIdx - 1, maxIdx}
	for idx := 2*survivePageLen - 8; idx < 3*survivePageLen+8; idx++ {
		idxs = append(idxs, idx)
	}
	s := rng.New(3)
	for trial := 0; trial < 5; trial++ {
		m := paperMatrix(s)
		proc, fresh := NewProc(m, DefaultEps), NewProc(m, DefaultEps)
		// Descending first, so later queries land in pages that exist.
		for pass := 0; pass < 2; pass++ {
			for k := range idxs {
				idx := idxs[len(idxs)-1-k]
				if pass == 1 {
					idx = idxs[k]
				}
				want := fresh.SurviveReal(float64(idx) / surviveGridStep)
				// Any t that rounds to idx hits the same grid point.
				for _, d := range []float64{-0.49, 0, 0.49} {
					t0 := (float64(idx) + d) / surviveGridStep
					if t0 <= 0 {
						continue
					}
					if got := proc.SurviveQ(t0); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("trial %d: SurviveQ(%v) = %v, want SurviveReal(%v) = %v",
							trial, t0, got, float64(idx)/surviveGridStep, want)
					}
				}
			}
		}
		clamp := fresh.SurviveReal(MaxHorizon)
		for _, t0 := range []float64{MaxHorizon + 0.2, MaxHorizon * 3, math.Inf(1)} {
			if got := proc.SurviveQ(t0); math.Float64bits(got) != math.Float64bits(clamp) {
				t.Fatalf("SurviveQ(%v) = %v, want the MaxHorizon clamp %v", t0, got, clamp)
			}
		}
		for _, t0 := range []float64{0, -1, math.Inf(-1)} {
			if got := proc.SurviveQ(t0); got != 1 {
				t.Fatalf("SurviveQ(%v) = %v, want 1", t0, got)
			}
		}
	}

	proc := NewProc(paperMatrix(s), DefaultEps)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SurviveQ(NaN) did not panic")
			}
		}()
		proc.SurviveQ(math.NaN())
	}()
	proc.SurviveQ(MaxHorizon - 0.3)
	pages := 0
	for _, pg := range proc.surviveCache {
		if pg != nil {
			pages++
		}
	}
	if pages != 1 {
		t.Fatalf("one query near MaxHorizon allocated %d pages, want 1", pages)
	}
}

func TestSingletonIdentities(t *testing.T) {
	s := rng.New(2)
	for trial := 0; trial < 30; trial++ {
		p := NewProc(paperMatrix(s), DefaultEps)
		// P+ = Eu/(1+Eu)
		if got := p.Eu() / (1 + p.Eu()); math.Abs(got-p.Pplus()) > 1e-9 {
			t.Fatalf("P+ identity violated: %v vs %v", got, p.Pplus())
		}
		if p.Pplus() <= 0 || p.Pplus() >= 1 {
			t.Fatalf("singleton P+ = %v out of (0,1)", p.Pplus())
		}
		if p.Ec() <= 0 {
			t.Fatalf("Ec = %v, want positive", p.Ec())
		}
	}
}

// The convolution definition of P+ must agree with the closed identity
// P+ = Eu/(1+Eu): sum the first-return distribution directly.
func TestPplusConvolutionIdentity(t *testing.T) {
	s := rng.New(3)
	for trial := 0; trial < 10; trial++ {
		p := NewProc(paperMatrix(s), DefaultEps)
		mass := 0.0
		pplus := []float64{0}
		for tt := 1; tt <= 4000; tt++ {
			v := p.Puu(tt)
			for tp := 1; tp < tt; tp++ {
				v -= pplus[tp] * p.Puu(tt-tp)
			}
			pplus = append(pplus, v)
			mass += v
		}
		if math.Abs(mass-p.Pplus()) > 1e-6 {
			t.Fatalf("convolution P+ = %v, identity P+ = %v", mass, p.Pplus())
		}
	}
}

func TestSetEvalMatchesDirectProduct(t *testing.T) {
	pl := paperPlatform(4, 6)
	se := pl.NewSetEval()
	members := []int{0, 2, 5}
	for _, q := range members {
		se.Add(q)
	}
	got := se.Stats()

	// Direct evaluation of the truncated series with a generous horizon.
	eu, a := 0.0, 0.0
	for tt := 1; tt <= 5000; tt++ {
		v := 1.0
		for _, q := range members {
			v *= pl.Procs[q].Puu(tt)
		}
		eu += v
		a += float64(tt) * v
	}
	if math.Abs(got.Eu-eu) > 1e-6*(1+eu) {
		t.Fatalf("Eu = %v, direct %v", got.Eu, eu)
	}
	if math.Abs(got.A-a) > 1e-5*(1+a) {
		t.Fatalf("A = %v, direct %v", got.A, a)
	}
	wantP := eu / (1 + eu)
	if math.Abs(got.Pplus-wantP) > 1e-9 {
		t.Fatalf("Pplus = %v, want %v", got.Pplus, wantP)
	}
}

func TestCandidateStatsMatchesAdd(t *testing.T) {
	pl := paperPlatform(5, 8)
	se := pl.NewSetEval()
	se.Add(1)
	se.Add(3)
	cand := se.CandidateStats(6)
	se2 := pl.NewSetEval()
	for _, q := range []int{1, 3, 6} {
		se2.Add(q)
	}
	full := se2.Stats()
	if math.Abs(cand.Eu-full.Eu) > 1e-9*(1+full.Eu) ||
		math.Abs(cand.Pplus-full.Pplus) > 1e-9 ||
		math.Abs(cand.Ec-full.Ec) > 1e-9*(1+full.Ec) {
		t.Fatalf("candidate %v != direct %v", cand, full)
	}
}

func TestCandidateStatsOfMemberIsStats(t *testing.T) {
	pl := paperPlatform(6, 4)
	se := pl.NewSetEval()
	se.Add(0)
	se.Add(1)
	if se.CandidateStats(1) != se.Stats() {
		t.Fatal("CandidateStats of an existing member should equal Stats")
	}
}

func TestCandidateStatsEmptySetIsSingleton(t *testing.T) {
	pl := paperPlatform(7, 3)
	se := pl.NewSetEval()
	got := se.CandidateStats(2)
	p := pl.Procs[2]
	if got.Pplus != p.Pplus() || got.Ec != p.Ec() {
		t.Fatalf("empty-set candidate %v, singleton consts P+=%v Ec=%v", got, p.Pplus(), p.Ec())
	}
}

func TestAddingWorkerReducesPplus(t *testing.T) {
	// Adding any fallible worker can only decrease the probability that
	// everyone is simultaneously UP again before a failure.
	pl := paperPlatform(8, 10)
	se := pl.NewSetEval()
	se.Add(0)
	prev := se.Stats().Pplus
	for q := 1; q < 10; q++ {
		se.Add(q)
		cur := se.Stats().Pplus
		if cur > prev+1e-9 {
			t.Fatalf("P+ increased from %v to %v when adding worker %d", prev, cur, q)
		}
		prev = cur
	}
}

func TestExpectedCompletionMonotoneInW(t *testing.T) {
	pl := paperPlatform(9, 5)
	st := pl.StatsOf([]int{0, 1, 2})
	prev := 0.0
	for w := 1; w <= 50; w++ {
		e := st.ExpectedCompletion(w)
		if e <= prev {
			t.Fatalf("E(W=%d) = %v not increasing (prev %v)", w, e, prev)
		}
		if e < float64(w) {
			t.Fatalf("E(W=%d) = %v below W", w, e)
		}
		prev = e
	}
	if st.ExpectedCompletion(0) != 0 {
		t.Fatal("E(0) should be 0")
	}
	if st.ExpectedCompletion(1) != 1 {
		t.Fatal("E(1) should be 1")
	}
}

func TestProbSuccessBasics(t *testing.T) {
	pl := paperPlatform(10, 5)
	st := pl.StatsOf([]int{0, 1})
	if st.ProbSuccess(1) != 1 {
		t.Fatal("one compute slot with everyone UP now always succeeds")
	}
	prev := 1.0
	for w := 2; w <= 30; w++ {
		p := st.ProbSuccess(w)
		if p >= prev || p <= 0 {
			t.Fatalf("ProbSuccess(%d) = %v not strictly decreasing in (0,1)", w, p)
		}
		prev = p
	}
}

func TestNoFailSet(t *testing.T) {
	// Processors that never go DOWN: P+ = 1 and Ec equals the mean
	// recurrence gap; for chains that never leave UP, Ec = 1 and E(W) = W.
	ms := []markov.Matrix{markov.AlwaysUp(), markov.AlwaysUp()}
	pl := NewPlatform(ms, DefaultEps)
	st := pl.StatsOf([]int{0, 1})
	if st.Pplus != 1 {
		t.Fatalf("P+ = %v, want 1", st.Pplus)
	}
	if math.Abs(st.Ec-1) > 1e-6 {
		t.Fatalf("Ec = %v, want 1", st.Ec)
	}
	if e := st.ExpectedCompletion(7); math.Abs(e-7) > 1e-6 {
		t.Fatalf("E(7) = %v, want 7", e)
	}
	if st.ProbSuccess(100) != 1 {
		t.Fatal("no-fail set must always succeed")
	}
}

func TestNoFailReclaimedSet(t *testing.T) {
	// UP <-> RECLAIMED but never DOWN: P+ = 1 but Ec > 1.
	m := markov.Matrix{
		{0.8, 0.2, 0},
		{0.5, 0.5, 0},
		{0, 0, 1},
	}
	pl := NewPlatform([]markov.Matrix{m}, DefaultEps)
	st := pl.StatsOf([]int{0})
	if st.Pplus != 1 {
		t.Fatalf("P+ = %v, want 1", st.Pplus)
	}
	// Mean first-return-to-UP: 1·0.8 + (1 + 1/0.5)·0.2 = 0.8 + 0.6 = 1.4.
	if math.Abs(st.Ec-1.4) > 1e-6 {
		t.Fatalf("Ec = %v, want 1.4", st.Ec)
	}
}

func TestSetEvalPanics(t *testing.T) {
	pl := paperPlatform(11, 3)
	se := pl.NewSetEval()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Stats on empty set", func() { se.Stats() })
	mustPanic("Add out of range", func() { se.Add(99) })
	se.Add(1)
	mustPanic("Add duplicate", func() { se.Add(1) })
	mustPanic("CandidateStats out of range", func() { se.CandidateStats(-1) })
}

func TestPlatformEpsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPlatform with eps=0 did not panic")
		}
	}()
	NewPlatform([]markov.Matrix{markov.Uniform(0.9)}, 0)
}

func TestExpectedCommBasics(t *testing.T) {
	pl := paperPlatform(12, 3)
	p := pl.Procs[0]
	if p.ExpectedComm(0) != 0 || p.ExpectedComm(-3) != 0 {
		t.Fatal("no communication need costs 0 slots")
	}
	if p.ExpectedComm(1) != 1 {
		t.Fatal("a single slot of communication for an UP worker costs 1")
	}
	prev := 1.0
	for n := 2; n <= 40; n++ {
		e := p.ExpectedComm(n)
		if e <= prev || e < float64(n) {
			t.Fatalf("ExpectedComm(%d) = %v not increasing or below n", n, e)
		}
		prev = e
	}
}

func TestCommEstimate(t *testing.T) {
	pl := paperPlatform(13, 4)
	needs := []CommNeed{{Proc: 0, Slots: 10}, {Proc: 1, Slots: 4}, {Proc: 2, Slots: 0}}
	cs := pl.CommEstimate(needs, 2)
	// Aggregate lower bound: 14 slots over 2 channels = 7.
	if cs.Expected < 7 {
		t.Fatalf("E_comm = %v below aggregate bound 7", cs.Expected)
	}
	// Per-worker lower bound.
	if cs.Expected < pl.Procs[0].ExpectedComm(10) {
		t.Fatalf("E_comm = %v below slowest single worker", cs.Expected)
	}
	if cs.Success <= 0 || cs.Success >= 1 {
		t.Fatalf("P_comm = %v out of (0,1)", cs.Success)
	}

	// With ample bandwidth the estimate equals the slowest worker.
	cs2 := pl.CommEstimate(needs, 100)
	if math.Abs(cs2.Expected-pl.Procs[0].ExpectedComm(10)) > 1e-12 {
		t.Fatalf("E_comm with ample ncom = %v, want %v", cs2.Expected, pl.Procs[0].ExpectedComm(10))
	}
	// More bandwidth never hurts.
	if cs2.Expected > cs.Expected+1e-12 {
		t.Fatal("increasing ncom increased E_comm")
	}
	if cs2.Success < cs.Success-1e-12 {
		t.Fatal("increasing ncom decreased P_comm")
	}
}

func TestCommEstimateEmptyAndPanics(t *testing.T) {
	pl := paperPlatform(14, 2)
	cs := pl.CommEstimate(nil, 5)
	if cs.Expected != 0 || cs.Success != 1 {
		t.Fatalf("empty comm estimate = %+v", cs)
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("ncom=0", func() { pl.CommEstimate(nil, 0) })
	mustPanic("bad proc", func() { pl.CommEstimate([]CommNeed{{Proc: 9, Slots: 1}}, 1) })
	mustPanic("negative slots", func() { pl.CommEstimate([]CommNeed{{Proc: 0, Slots: -1}}, 1) })
}

// Property: for arbitrary paper-style platforms, set statistics stay in
// their mathematical ranges.
func TestSetStatsRangesProperty(t *testing.T) {
	if err := quick.Check(func(seed uint32, sizeRaw uint8) bool {
		size := int(sizeRaw%6) + 1
		pl := paperPlatform(uint64(seed), size)
		members := make([]int, size)
		for i := range members {
			members[i] = i
		}
		st := pl.StatsOf(members)
		return st.Pplus > 0 && st.Pplus < 1 &&
			st.Ec >= 0 && st.Eu > 0 &&
			st.ExpectedCompletion(5) >= 5 &&
			st.ProbSuccess(5) > 0 && st.ProbSuccess(5) <= 1
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the truncation precision is honored — evaluating with a much
// finer eps changes Eu by less than the coarser eps.
func TestEpsilonControl(t *testing.T) {
	s := rng.New(15)
	for trial := 0; trial < 10; trial++ {
		m := paperMatrix(s)
		coarse := NewProc(m, 1e-4)
		fine := NewProc(m, 1e-12)
		if math.Abs(coarse.Eu()-fine.Eu()) > 1e-3 {
			t.Fatalf("Eu precision gap %v exceeds eps", math.Abs(coarse.Eu()-fine.Eu()))
		}
	}
}

func TestStringForms(t *testing.T) {
	pl := paperPlatform(16, 1)
	if pl.Procs[0].String() == "" || pl.StatsOf([]int{0}).String() == "" {
		t.Fatal("empty string forms")
	}
}

// Package sched implements the on-line scheduling heuristics of Section VI:
//
//   - four passive incremental heuristics — IP (probability of success),
//     IE (expected completion time), IY (expected yield), IAY (expected
//     apparent yield) — that assign the m tasks one by one to UP workers,
//     each step maximizing the heuristic's criterion;
//   - twelve proactive heuristics C-H, with switch criterion
//     C ∈ {P, E, Y} and building block H one of the four passive
//     heuristics: every slot a candidate configuration is built from
//     scratch and adopted only if it strictly beats the progress-updated
//     value of the current configuration;
//   - the RANDOM baseline, which assigns tasks to UP workers uniformly.
//
// Heuristics are pure deciders: the simulation engine owns all ground
// truth (worker program/data retention, communication progress, compute
// progress) and presents it through a View each slot; the heuristic
// returns the assignment to use for that slot.
package sched

import (
	"fmt"
	"math"

	"tightsched/internal/analytic"
	"tightsched/internal/app"
	"tightsched/internal/markov"
	"tightsched/internal/platform"
	"tightsched/internal/rng"
)

// WorkerInfo is the per-worker retention state exposed to heuristics. It
// mirrors Section III.C: a worker keeps the program across iterations
// unless it goes DOWN, keeps complete data messages for the current
// iteration unless it goes DOWN, and keeps partial message progress only
// while it stays enrolled and not DOWN.
type WorkerInfo struct {
	// HasProgram reports whether the worker holds the application program
	// (received at some point and not DOWN since).
	HasProgram bool
	// ProgProgress is the number of slots of program download completed
	// in the current attempt (0 if HasProgram or not started).
	ProgProgress int
	// DataHeld is the number of complete task-data messages held for the
	// current iteration.
	DataHeld int
	// DataProgress is the number of slots received of the in-flight data
	// message, if any.
	DataProgress int
}

// View is the per-slot snapshot a heuristic decides on.
type View struct {
	// Slot is the current time-slot index.
	Slot int64
	// States holds each processor's availability state at this slot.
	States []markov.State
	// Workers holds each processor's retention state.
	Workers []WorkerInfo
	// Current is the configuration in effect (nil at iteration start or
	// after a failure forced a restart): the very slice a heuristic
	// returned when it was adopted. It is immutable: a new configuration
	// arrives as another slice, never written into this one, so a
	// heuristic may rely on a Current it has seen staying as it was.
	Current app.Assignment
	// RemainingWork is W minus the compute slots already accumulated by
	// the current configuration (meaningless when Current is nil).
	RemainingWork int
	// Elapsed is the number of slots since the current iteration first
	// started being attempted (not reset by restarts): the paper's t in
	// the yield Y = P/(E+t).
	Elapsed int64
	// RetentionEpoch is a counter the engine bumps whenever any worker's
	// message-granularity retention changes (a program or data message
	// completes, a worker goes DOWN, an iteration ends). Heuristics may
	// use it to cache work that only depends on retention and UP states.
	RetentionEpoch int64

	// codes, when non-nil, are States and Workers already encoded for
	// fresh builds and kept current by the engine (see Codes); a view
	// without them is encoded on demand.
	codes *Codes
}

// Heuristic decides, every slot, which configuration to run.
type Heuristic interface {
	// Name returns the paper's name for the heuristic (e.g. "Y-IE").
	Name() string
	// Decide returns the assignment to use at this slot. Returning an
	// assignment Equal to v.Current keeps the configuration; returning
	// nil means no feasible configuration exists (the engine idles one
	// slot). The returned assignment must use only UP workers within
	// their capacities and carry exactly m tasks.
	//
	// Returned assignments are immutable on both sides: the caller must
	// not modify one (the engine adopts it as it is and hands it back as
	// View.Current), and a heuristic may return the same slice again —
	// its previous result, or one shared through a DecisionCache — but
	// must never write to a slice it has returned.
	Decide(v *View) app.Assignment
}

// SpanDecider is the optional Heuristic extension the simulator's
// event-leap engine consumes. DecideSpan is Decide plus a homogeneity
// horizon: n >= 1 is the number of upcoming slots (starting at v.Slot)
// over which the engine guarantees the availability vector stays
// constant. The returned keep, clamped by the engine to [1, n], promises
// that — provided the engine applies the returned decision, the
// availability vector and the retention epoch stay unchanged, and no
// phase event clears the configuration — Decide at each of the next
// keep-1 slots would return a value Equal to the then-current
// configuration (or nil while idle). The engine re-decides at every
// retention-epoch change (message completion, DOWN wipe, iteration end)
// regardless of keep, so implementations only reason about Elapsed- and
// Slot-driven drift: passive heuristics return n; proactive ones return
// n when the cached candidate cannot displace the running configuration
// and 1 when a per-slot score comparison is in play.
//
// Heuristics that do not implement SpanDecider are decided every slot
// under both engines, which preserves exact slot-engine behavior for
// arbitrary custom policies (stateful, Slot-dependent, randomized) at
// the cost of the decision leap.
type SpanDecider interface {
	Heuristic
	DecideSpan(v *View, n int64) (app.Assignment, int64)
}

// Env bundles the immutable per-run context heuristics are built from.
// Heuristics reason only over believed state: when the platform's
// availability model is not Markov, Believed and Analytic carry the
// fitted matrices of avail.Model.EstimatorMatrices, never the ground
// truth.
type Env struct {
	Platform *platform.Platform
	App      app.Application
	// Believed holds the per-processor Markov matrices the heuristics
	// should believe (the platform's nominal matrices when nil).
	Believed []markov.Matrix
	// Analytic is the Section V estimator over the believed matrices.
	Analytic *analytic.Platform
	// Rand is the stream randomized heuristics draw from (RANDOM).
	Rand *rng.Stream
	// Decisions, when non-nil, shares fresh greedy builds across the
	// heuristic instances of one lockstep batch (see DecisionCache). It
	// is consulted only by the incremental build path — RANDOM and the
	// static baselines never route through it — and a nil cache restores
	// the solo behavior exactly.
	Decisions *DecisionCache
	// RenewalE switches the expected-completion-time metric from the
	// formula as printed in the paper, 1 + (W−1)·Ec/(P⁺)^{W−1}, to the
	// renewal form 1 + (W−1)·Ec/P⁺.
	//
	// The default (false) reproduces the paper: its (P⁺)^{W−1}
	// denominator makes E explode for unreliable sets with long
	// workloads, which is what makes the IE family robust in the
	// published rankings. The renewal form is the statistically correct
	// conditional expectation (validated by Monte-Carlo in
	// internal/analytic) but, used as a selection metric, it leaves IE
	// reliability-blind. See DESIGN.md ("Reproduction notes").
	RenewalE bool
}

// successCompletion returns (ProbSuccess(w), completion metric) of a set
// under the environment's configured form. Both quantities need the same
// (P⁺)^{W−1}, the hottest exponentiation of a memoized decision; it is
// computed once through the platform's PowPplus memo and shared, which is
// bit-identical to the two independent math.Pow calls it replaces.
func (e *Env) successCompletion(st analytic.SetStats, w int) (psucc, ecomp float64) {
	powv := 1.0
	if w > 1 {
		powv = e.Analytic.PowPplus(st.Pplus, w-1)
	}
	return e.successCompletionPow(st, w, powv)
}

// successCompletionPow is successCompletion with (P⁺)^{W−1} already in
// hand (from a per-set power ring; see analytic.SetEval.StatsPow).
func (e *Env) successCompletionPow(st analytic.SetStats, w int, powv float64) (psucc, ecomp float64) {
	psucc = 1.0
	if w > 1 {
		psucc = powv
	}
	switch {
	case w <= 0:
		ecomp = 0
	case st.Pplus <= 0:
		ecomp = math.Inf(1)
	case e.RenewalE:
		ecomp = 1 + float64(w-1)*st.Ec/st.Pplus
	default:
		ecomp = 1 + float64(w-1)*st.Ec/powv
	}
	return psucc, ecomp
}

// expectedComm returns the single-worker communication estimate under the
// environment's configured form.
func (e *Env) expectedComm(q, n int) float64 {
	if e.RenewalE {
		return e.Analytic.Procs[q].ExpectedComm(n)
	}
	return e.Analytic.Procs[q].ExpectedCommPaper(n)
}

// validate panics on an inconsistent environment; heuristics are built at
// simulation setup where a panic is a programming error, not user input.
func (e *Env) validate() {
	if e.Platform == nil || e.Analytic == nil {
		panic("sched: Env missing platform or analytic state")
	}
	if err := e.Platform.Validate(); err != nil {
		panic(err)
	}
	if err := e.App.Validate(); err != nil {
		panic(err)
	}
	if len(e.Analytic.Procs) != e.Platform.Size() {
		panic("sched: analytic platform size mismatch")
	}
	if e.Believed != nil && len(e.Believed) != e.Platform.Size() {
		panic("sched: believed matrices size mismatch")
	}
}

// believedMatrix returns the availability matrix heuristics should
// believe for processor q.
func (e *Env) believedMatrix(q int) markov.Matrix {
	if e.Believed != nil {
		return e.Believed[q]
	}
	return e.Platform.Procs[q].Avail
}

// Criterion is one of the paper's four configuration metrics.
type Criterion int

const (
	// CritP is the probability of success of the iteration.
	CritP Criterion = iota
	// CritE is the expected completion time of the iteration.
	CritE
	// CritY is the expected yield P/(t+E).
	CritY
	// CritAY is the expected apparent yield P/E.
	CritAY
)

// String returns the paper's letter for the criterion.
func (c Criterion) String() string {
	switch c {
	case CritP:
		return "P"
	case CritE:
		return "E"
	case CritY:
		return "Y"
	case CritAY:
		return "AY"
	default:
		return fmt.Sprintf("Criterion(%d)", int(c))
	}
}

// Value is the (P, E) estimate of a configuration at elapsed time t,
// from which every criterion's score derives.
type Value struct {
	P float64 // estimated probability the iteration completes
	E float64 // estimated expected remaining completion time in slots
	T float64 // slots already spent in the iteration
}

// Score maps the value to a number where higher is better for the
// criterion (E is negated).
func (c Criterion) Score(v Value) float64 {
	switch c {
	case CritP:
		return v.P
	case CritE:
		return -v.E
	case CritY:
		return v.P / (v.T + v.E)
	case CritAY:
		if v.E <= 0 {
			return math.Inf(1)
		}
		return v.P / v.E
	default:
		panic(fmt.Sprintf("sched: unknown criterion %d", int(c)))
	}
}

// Names returns the names of all 17 heuristics in the paper's order:
// the four passive heuristics, the twelve proactive combinations, and
// RANDOM.
func Names() []string {
	names := []string{"IP", "IE", "IY", "IAY"}
	for _, c := range []string{"P", "E", "Y"} {
		for _, h := range []string{"IP", "IE", "IY", "IAY"} {
			names = append(names, c+"-"+h)
		}
	}
	names = append(names, "RANDOM")
	return names
}

// Build constructs the named heuristic over the environment. Valid names
// are those in the registry: Names(), ExtendedNames(), and anything
// plugged in through Register.
func Build(name string, env *Env) (Heuristic, error) {
	env.validate()
	f, err := heuristics.Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(env)
}

// buildBuiltin constructs one of the package's own heuristics; the
// registry's init wraps it into per-name factories.
func buildBuiltin(name string, env *Env) (Heuristic, error) {
	if name == "RANDOM" {
		if env.Rand == nil {
			return nil, fmt.Errorf("sched: RANDOM requires Env.Rand")
		}
		return &random{env: env}, nil
	}
	if h := buildExtended(name, env); h != nil {
		return h, nil
	}
	base, proCrit, err := parseName(name)
	if err != nil {
		return nil, err
	}
	inc := &incremental{env: env, crit: base, name: baseName(base)}
	if proCrit < 0 {
		return inc, nil
	}
	return &proactive{env: env, base: inc, crit: proCrit, name: name}, nil
}

// MustBuild is Build that panics on error, for tests and examples.
func MustBuild(name string, env *Env) Heuristic {
	h, err := Build(name, env)
	if err != nil {
		panic(err)
	}
	return h
}

// parseName splits "C-H" or "H" into the base incremental criterion and
// the proactive criterion (-1 when passive).
func parseName(name string) (base Criterion, pro Criterion, err error) {
	pro = -1
	rest := name
	for i := 0; i < len(name); i++ {
		if name[i] == '-' {
			switch name[:i] {
			case "P":
				pro = CritP
			case "E":
				pro = CritE
			case "Y":
				pro = CritY
			default:
				return 0, 0, fmt.Errorf("sched: unknown proactive criterion %q in %q", name[:i], name)
			}
			rest = name[i+1:]
			break
		}
	}
	switch rest {
	case "IP":
		base = CritP
	case "IE":
		base = CritE
	case "IY":
		base = CritY
	case "IAY":
		base = CritAY
	default:
		return 0, 0, fmt.Errorf("sched: unknown heuristic %q", name)
	}
	return base, pro, nil
}

func baseName(c Criterion) string {
	switch c {
	case CritP:
		return "IP"
	case CritE:
		return "IE"
	case CritY:
		return "IY"
	case CritAY:
		return "IAY"
	}
	panic("sched: bad base criterion")
}

// upWorkersInto appends the indices of UP processors, in increasing
// order, to dst[:0]. Heuristics own a scratch slice and pass it here so
// the per-slot decision loop does not allocate.
func upWorkersInto(dst []int, states []markov.State) []int {
	dst = dst[:0]
	for q, s := range states {
		if s == markov.Up {
			dst = append(dst, q)
		}
	}
	return dst
}

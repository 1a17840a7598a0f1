package sched

import (
	"math"

	"tightsched/internal/analytic"
	"tightsched/internal/app"
)

// incremental is a passive heuristic of Section VI.A: it keeps the current
// configuration until the engine clears it (a worker went DOWN or the
// iteration completed), and otherwise builds a configuration by assigning
// the m tasks one at a time, each to the UP worker that optimizes the
// heuristic's criterion over the partial configuration.
//
// The scratch fields are reused across Decide calls; heuristic instances
// are therefore not safe for concurrent use (each simulation builds its
// own, see Build).
type incremental struct {
	env  *Env
	crit Criterion
	name string

	ups     []int
	needs   []int // fresh comm need of each enrolled worker
	expComm []float64
	speeds  []int
	se      *analytic.SetEval

	tr buildTrace
	// workload and totalNeed are the running build's partial workload
	// and total fresh comm need; added counts the build's leading
	// winners already folded into se.
	workload, totalNeed, added int
	// codes is the scratch a view without attached codes is encoded in.
	codes Codes
	// asg is the build's scratch assignment; last is the assignment the
	// previous non-nil build returned. A build Equal to last returns
	// last itself, so an instance replaying its previous build allocates
	// nothing (returned assignments are immutable; see Heuristic.Decide).
	asg, last app.Assignment
}

// Name implements Heuristic.
func (h *incremental) Name() string { return h.name }

// Decide implements Heuristic.
func (h *incremental) Decide(v *View) app.Assignment {
	if v.Current != nil {
		return v.Current
	}
	return h.build(v)
}

// DecideSpan implements SpanDecider. The heuristic is passive: with a
// configuration in place it always keeps it, and a fresh build depends
// only on the UP set and message-granularity retention — both constant
// over a homogeneous span (a non-nil build is adopted at the span's first
// slot, after which the keep branch applies; a nil build stays nil while
// the UP set stands still, since feasibility does not read Elapsed).
func (h *incremental) DecideSpan(v *View, n int64) (app.Assignment, int64) {
	return h.Decide(v), n
}

// build builds an assignment greedily, consulting the batch decision
// cache first when one is installed: a fresh build is a pure function of
// the cache key (criterion, UP set, fresh-build retention, elapsed under
// CritY), so a hit returns exactly the assignment this instance would
// have built — see DecisionCache. A miss replays this instance's previous
// fresh build (buildFresh), which a hit leaves untouched.
func (h *incremental) build(v *View) app.Assignment {
	dc := h.env.Decisions
	if dc == nil {
		return h.buildFresh(v)
	}
	if asg, ok := dc.lookup(h.env, h.crit, v); ok {
		return asg
	}
	asg := h.buildFresh(v)
	dc.store(asg)
	return asg
}

// buildFresh builds an assignment greedily. It returns nil when the UP
// workers cannot host m tasks.
//
// Cost: m assignment steps, each choosing among at most p candidates. A
// candidate's Value comes, cheapest first, from the instance's build
// trace (a kept candidate while the build replays the previous one; see
// buildTrace), from the batch's candidate-Value memo when a decision
// cache is installed (see valueMemo), or from scoring it: one O(T)
// series pass for the compute estimate (through the incremental SetEval)
// plus O(|S|) for the communication estimate. The SetEval receives the
// step's winners only when a candidate is scored. A cold build is a
// replay with an empty trace. The build runs in the heuristic's scratch
// buffers and trace; only a result that differs from the previous one is
// allocated.
func (h *incremental) buildFresh(v *View) app.Assignment {
	env := h.env
	m := env.App.Tasks
	h.ups = upWorkersInto(h.ups, v.States)
	ups := h.ups
	if capacityOf(env, ups) < m {
		// No candidate was scored: the trace still describes the last
		// build it recorded.
		return nil
	}

	p := env.Platform.Size()
	if h.speeds == nil {
		h.speeds = env.Platform.Speeds()
		h.needs = make([]int, p)
		h.expComm = make([]float64, p)
		h.asg = make(app.Assignment, p)
		h.tr.init(p, m)
	}
	speeds, needs, expComm := h.speeds, h.needs, h.expComm
	for i := range needs {
		needs[i] = 0
		expComm[i] = 0
	}
	if h.se == nil {
		h.se = env.Analytic.NewSetEval()
	} else {
		h.se.Reset()
	}
	codes := v.decisionCodes(env, &h.codes)
	tr := &h.tr
	tr.observe(codes)
	var memo *valueMemo
	var node uint32
	if env.Decisions != nil {
		memo = &env.Decisions.values
		if node = memo.begin(codes, p); node == 0 {
			memo = nil
		}
	}
	procs := env.Platform.Procs
	elapsed := float64(v.Elapsed)
	asg := h.asg
	clear(asg)
	h.workload, h.totalNeed, h.added = 0, 0, 0

	// live: steps 0..task-1 picked the trace's winners, none of whose
	// retention changed, so the trace's Values for this step are exact
	// for every kept candidate. keptFull counts kept workers at capacity.
	live := true
	replayed := true
	keptFull := 0
	var scored, reused int

	for task := 0; task < m; task++ {
		live = live && task < len(tr.winners)
		row := tr.vals[task*p : (task+1)*p]
		bestQ := -1
		bestScore := math.Inf(-1)
		if live && h.crit != CritY && tr.kept[tr.winners[task]] {
			// The traced winner was the first argmax over a superset of
			// the kept candidates, whose scores are unchanged (only
			// CritY reads Elapsed), so it is still their first argmax.
			// Only the fresh candidates can beat it: on a higher score,
			// or on an equal one with a lower index.
			bestQ = tr.winners[task]
			bestScore = h.crit.Score(row[bestQ])
			reused += len(ups) - len(tr.fresh) - keptFull
			for _, q := range tr.fresh {
				if asg[q] >= procs[q].Capacity {
					continue
				}
				val := h.value(v, codes, memo, node, task, q)
				row[q] = val
				scored++
				if s := h.crit.Score(val); s > bestScore || s == bestScore && q < bestQ {
					bestScore = s
					bestQ = q
				}
			}
		} else {
			for _, q := range ups {
				if asg[q] >= procs[q].Capacity {
					continue
				}
				var val Value
				if live && tr.kept[q] {
					val = row[q]
					reused++
				} else {
					val = h.value(v, codes, memo, node, task, q)
					row[q] = val
					scored++
				}
				val.T = elapsed
				if s := h.crit.Score(val); s > bestScore {
					bestScore = s
					bestQ = q
				}
			}
		}
		if bestQ < 0 {
			tr.winners = tr.winners[:task]
			env.Decisions.noteBuild(scored, reused, false)
			return nil
		}
		if live && bestQ == tr.winners[task] {
			live = tr.kept[bestQ]
		} else {
			live, replayed = false, false
			if task < len(tr.winners) {
				tr.winners[task] = bestQ
			} else {
				tr.winners = append(tr.winners, bestQ)
			}
		}
		if memo != nil && task+1 < m {
			node = memo.child(node, bestQ, codes.at(bestQ))
		}
		asg[bestQ]++
		if asg[bestQ] == procs[bestQ].Capacity && tr.kept[bestQ] {
			keptFull++
		}
		h.totalNeed -= needs[bestQ]
		needs[bestQ] = commNeedFresh(env, v.Workers[bestQ], asg[bestQ])
		h.totalNeed += needs[bestQ]
		expComm[bestQ] = env.expectedComm(bestQ, needs[bestQ])
		if l := asg[bestQ] * speeds[bestQ]; l > h.workload {
			h.workload = l
		}
	}
	env.Decisions.noteBuild(scored, reused, replayed)
	if !asg.Equal(h.last) {
		h.last = asg.Clone()
	}
	return h.last
}

// value returns candidate q's Value (T unset) at greedy step task, whose
// winner prefix is the memo's node: the memoized one when the memo holds
// it, otherwise a scored one, which the memo then keeps. A nil memo
// always scores.
func (h *incremental) value(v *View, c *Codes, memo *valueMemo, node uint32, task, q int) Value {
	if memo == nil {
		return h.score(v, task, q)
	}
	key := memoKey(node, q, c.at(q))
	m, ok := memo.tab.Get(key)
	memo.lookups++
	if ok {
		memo.hits++
		val := Value{P: m.p, E: m.e}
		if valueMemoHitHook != nil {
			valueMemoHitHook(val, h.score(v, task, q))
		}
		return val
	}
	val := h.score(v, task, q)
	memo.tab.Put(key, memoVal{p: val.P, e: val.E})
	return val
}

// valueMemoHitHook, when set (by tests only), receives every memo hit
// next to a fresh scoring of the same candidate.
var valueMemoHitHook func(memo, fresh Value)

// score computes candidate q's Value at greedy step task, first adding
// to the SetEval the winners of the steps before it that it lacks.
func (h *incremental) score(v *View, task, q int) Value {
	for ; h.added < task; h.added++ {
		if w := h.tr.winners[h.added]; !h.se.Contains(w) {
			h.se.Add(w)
		}
	}
	return candidateValue(h.env, v, h.se, h.asg, q,
		h.speeds, h.workload, h.needs, h.expComm, h.totalNeed)
}

// buildTrace is one heuristic instance's record of its previous fresh
// build, which the next build replays. A candidate's Value at greedy step
// k is a pure function of the winners of steps 0..k-1, their retention,
// and the candidate's own retention (Elapsed enters only Criterion.Score,
// as T). So while a build keeps picking the trace's winners, whose
// retention is unchanged, every candidate that was UP in the traced build
// with unchanged retention ("kept") reads its stored Value back instead
// of being scored; the first step whose winner differs falls back to full
// scoring. Memory: m·p Values per instance.
type buildTrace struct {
	// codes are the decision codes of the traced build's view (see
	// Codes), width bytes per processor: its UP set and the retention
	// commNeedFresh reads.
	codes []byte
	width int
	// kept[q] reports whether the current build sees processor q UP in
	// both builds with the same retention.
	kept []bool
	// fresh lists the current build's UP processors that are not kept.
	fresh []int
	// winners[k] is the traced build's step-k winner; a failed build
	// keeps only the steps before the failure.
	winners []int
	// vals[k*p+q] is candidate q's Value at step k (T unset). Entries
	// are exact for kept candidates the traced build reached.
	vals []Value
}

func (tr *buildTrace) init(p, m int) {
	tr.kept = make([]bool, p)
	tr.fresh = make([]int, 0, p)
	tr.winners = make([]int, 0, m)
	tr.vals = make([]Value, m*p)
}

// observe diffs the view's codes against the traced ones, marking kept
// processors and listing the fresh UP ones, and records the codes as the
// trace's. A code is nonzero exactly when its processor is UP, and its
// first byte carries that bit.
func (tr *buildTrace) observe(c *Codes) {
	tr.fresh = tr.fresh[:0]
	w := c.width
	if w != tr.width {
		// Codes of another width share nothing: the trace is treated as
		// seeing every processor not UP.
		tr.codes = make([]byte, len(c.b))
		tr.width = w
	}
	if w == 1 {
		// Under 64 tasks: one byte per processor.
		prev, kept := tr.codes[:len(c.b)], tr.kept[:len(c.b)]
		for q, x := range c.b {
			k := x != 0 && x == prev[q]
			kept[q] = k
			if x != 0 && !k {
				tr.fresh = append(tr.fresh, q)
			}
		}
	} else {
		for q := range tr.kept {
			cur, prev := c.b[q*w:(q+1)*w], tr.codes[q*w:(q+1)*w]
			k := cur[0] != 0 && string(cur) == string(prev)
			tr.kept[q] = k
			if cur[0] != 0 && !k {
				tr.fresh = append(tr.fresh, q)
			}
		}
	}
	copy(tr.codes, c.b)
}

// capacityOf returns the total task capacity of the given workers, capped
// at the application size to avoid overflow with unbounded capacities.
func capacityOf(env *Env, workers []int) int {
	m := env.App.Tasks
	total := 0
	for _, q := range workers {
		c := env.Platform.Procs[q].Capacity
		if c > m {
			c = m
		}
		total += c
		if total >= m {
			return m
		}
	}
	return total
}

// candidateValue estimates the configuration that assigns one more task
// to worker q on top of the partial configuration (asg, se). It reads
// v only for q's retention and leaves Value.T unset, so the result is a
// pure function of the partial configuration and q's retention — what
// lets buildTrace replay it.
func candidateValue(env *Env, v *View, se *analytic.SetEval, asg app.Assignment,
	q int, speeds []int, workload int, needs []int, expComm []float64,
	totalNeed int) Value {

	x := asg[q] + 1
	w := workload
	if l := x * speeds[q]; l > w {
		w = l
	}
	needQ := commNeedFresh(env, v.Workers[q], x)
	expQ := env.expectedComm(q, needQ)

	// E_comm over S ∪ {q} with q's need replaced.
	maxSingle := expQ
	for _, mq := range se.Members() {
		if mq != q && expComm[mq] > maxSingle {
			maxSingle = expComm[mq]
		}
	}
	total := totalNeed - needs[q] + needQ
	ecomm := maxSingle
	if agg := float64(total) / float64(env.Platform.Ncom); agg > ecomm {
		ecomm = agg
	}

	// P_comm over S ∪ {q}.
	pcomm := 1.0
	inSet := se.Contains(q)
	if !inSet {
		pcomm = env.Analytic.Procs[q].SurviveQ(ecomm)
	}
	for _, mq := range se.Members() {
		pcomm *= env.Analytic.Procs[mq].SurviveQ(ecomm)
	}

	var st analytic.SetStats
	var powv float64
	if inSet {
		st, powv = se.StatsPow(w)
	} else {
		st, powv = se.CandidateStatsPow(q, w)
	}
	psucc, ecomp := env.successCompletionPow(st, w, powv)
	return Value{P: pcomm * psucc, E: ecomm + ecomp}
}

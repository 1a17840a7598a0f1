package sched

import "tightsched/internal/markov"

// Codes holds a view's decision codes: one fixed-width code per
// processor, 0 unless the processor is UP and otherwise UP plus its
// message-granularity retention (HasProgram, DataHeld) — exactly what a
// fresh greedy build reads of a processor. The DecisionCache composes
// its keys from them and a buildTrace diffs them, so neither re-encodes
// the whole view per build.
//
// The simulation engine owns one Codes per instance, attached to the
// view it hands the heuristic, and rewrites a processor's code only
// where its state or retention can have changed. A view without
// attached codes (one built by hand, outside the engine) is encoded on
// demand by the same encoder, so there is one key format.
type Codes struct {
	// width is the bytes per code: enough for DataHeld<<2|3 with
	// DataHeld at most the application's task count.
	width int
	// b holds processor q's code little-endian in b[q*width:(q+1)*width].
	b []byte
	// upEpoch changes whenever some processor's UP bit may have changed:
	// on Init and on every Set that turns a code from zero to nonzero or
	// back. A heuristic that cached work on the UP set compares it
	// instead of walking the states.
	upEpoch uint64
}

// Init sizes c for p processors of an application of m tasks and
// zeroes every code.
func (c *Codes) Init(p, m int) {
	c.width = codeWidth(m)
	c.upEpoch++
	if n := p * c.width; cap(c.b) >= n {
		c.b = c.b[:n]
		clear(c.b)
	} else {
		c.b = make([]byte, n)
	}
}

// Attach makes v carry c: heuristics then read c instead of encoding
// v.States and v.Workers. The caller keeps c current with them; a copy
// of v carries c too, so a caller that edits a copy's States or Workers
// hands heuristics a new View instead.
func (c *Codes) Attach(v *View) { v.codes = c }

// Set rewrites processor q's code from its state and retention.
func (c *Codes) Set(q int, s markov.State, w *WorkerInfo) {
	x := code(s, w)
	// A code's first byte carries its UP bit.
	if (c.b[q*c.width] != 0) != (x != 0) {
		c.upEpoch++
	}
	if c.width == 1 {
		c.b[q] = byte(x)
		return
	}
	b := c.b[q*c.width : (q+1)*c.width]
	for i := range b {
		b[i] = byte(x)
		x >>= 8
	}
}

// at returns processor q's code.
func (c *Codes) at(q int) uint64 {
	if c.width == 1 {
		return uint64(c.b[q])
	}
	var x uint64
	for i := (q+1)*c.width - 1; i >= q*c.width; i-- {
		x = x<<8 | uint64(c.b[i])
	}
	return x
}

// SetAll rewrites every processor's code.
func (c *Codes) SetAll(states []markov.State, workers []WorkerInfo) {
	for q, s := range states {
		c.Set(q, s, &workers[q])
	}
}

// code is the one encoder: 0 for a processor that is not UP (DOWN and
// RECLAIMED are both non-candidates for a fresh build, and their
// retention is unread), otherwise 1, plus 2 with the program, plus
// DataHeld<<2.
func code(s markov.State, w *WorkerInfo) uint64 {
	if s != markov.Up {
		return 0
	}
	x := uint64(w.DataHeld)<<2 | 1
	if w.HasProgram {
		x |= 2
	}
	return x
}

// codeWidth returns the bytes a code needs when DataHeld is at most
// maxData.
func codeWidth(maxData int) int {
	w := 1
	for x := (uint64(maxData)<<2 | 3) >> 8; x != 0; x >>= 8 {
		w++
	}
	return w
}

// decisionCodes returns the view's codes: the attached ones, or else the
// view encoded into scratch. The on-demand width covers env's task count
// and every UP processor's DataHeld, so a hand-built view with more
// messages than tasks still encodes injectively; a consistent view
// (DataHeld at most the task count) gets the engine's width.
func (v *View) decisionCodes(env *Env, scratch *Codes) *Codes {
	if v.codes != nil {
		return v.codes
	}
	maxData := 0
	if env != nil {
		maxData = env.App.Tasks
	}
	for q, s := range v.States {
		if s == markov.Up && v.Workers[q].DataHeld > maxData {
			maxData = v.Workers[q].DataHeld
		}
	}
	scratch.Init(len(v.States), maxData)
	scratch.SetAll(v.States, v.Workers)
	return scratch
}

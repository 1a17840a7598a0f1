package sched

import (
	"bytes"
	"slices"
	"testing"

	"tightsched/internal/app"
	"tightsched/internal/markov"
)

// TestCodeWidth: a code holds DataHeld<<2 plus two flag bits, so an
// application of 63 tasks fits one byte and 64 need two.
func TestCodeWidth(t *testing.T) {
	for _, c := range []struct{ m, want int }{
		{0, 1}, {1, 1}, {63, 1}, {64, 2}, {16383, 2}, {16384, 3},
	} {
		if got := codeWidth(c.m); got != c.want {
			t.Errorf("codeWidth(%d) = %d, want %d", c.m, got, c.want)
		}
	}
}

// TestAttachedCodesKeyLikeOnDemand: a view carrying codes kept by hand
// composes the same key as the same view encoded on demand, whatever the
// code width, and a hand-built view holding more messages than the
// application has tasks is encoded wide enough to keep them apart.
func TestAttachedCodesKeyLikeOnDemand(t *testing.T) {
	for _, m := range []int{3, 70} {
		env := &Env{App: app.Application{Tasks: m}}
		v := cacheView(6, uint64(m))
		for q := range v.Workers {
			v.Workers[q].DataHeld %= m + 1
		}
		dc := NewDecisionCache()
		if _, ok := dc.lookup(env, CritY, v); ok {
			t.Fatal("empty cache hit")
		}
		onDemand := slices.Clone(dc.key)
		dc.store(app.Assignment{1})

		var c Codes
		c.Init(len(v.States), m)
		c.SetAll(v.States, v.Workers)
		attached := *v
		c.Attach(&attached)
		if _, ok := dc.lookup(env, CritY, &attached); !ok {
			t.Fatalf("m=%d: attached codes missed the key stored on demand", m)
		}
		if !bytes.Equal(dc.key, onDemand) {
			t.Fatalf("m=%d: keys differ: attached %x, on demand %x", m, dc.key, onDemand)
		}
		if want := 1 + 8 + len(v.States)*codeWidth(m); len(dc.key) != want {
			t.Fatalf("m=%d: key of %d bytes, want %d", m, len(dc.key), want)
		}
	}

	env := &Env{App: app.Application{Tasks: 3}}
	dc := NewDecisionCache()
	v := &View{States: make([]markov.State, 2), Workers: make([]WorkerInfo, 2)}
	v.Workers[0].DataHeld = 1
	dc.lookup(env, CritE, v)
	dc.store(app.Assignment{1})
	v.Workers[0].DataHeld = 1 + 64
	if _, ok := dc.lookup(env, CritE, v); ok {
		t.Fatal("DataHeld 65 past the task count shares DataHeld 1's key")
	}
}

// TestObserveWideCodes: the build trace compares a processor's whole
// code, so a retention change in a wide code's upper byte alone makes
// the processor fresh, and a processor not UP is neither kept nor fresh.
func TestObserveWideCodes(t *testing.T) {
	const p, m = 3, 300
	var tr buildTrace
	tr.init(p, m)
	states := []markov.State{markov.Up, markov.Up, markov.Down}
	workers := []WorkerInfo{{DataHeld: 5}, {DataHeld: 7, HasProgram: true}, {}}
	var c Codes
	c.Init(p, m)
	c.SetAll(states, workers)
	tr.observe(&c)
	if !slices.Equal(tr.fresh, []int{0, 1}) {
		t.Fatalf("first observe: fresh %v, want [0 1]", tr.fresh)
	}
	workers[0].DataHeld = 5 + 64 // same low byte of the code
	c.SetAll(states, workers)
	tr.observe(&c)
	if !slices.Equal(tr.fresh, []int{0}) || tr.kept[0] || !tr.kept[1] || tr.kept[2] {
		t.Fatalf("second observe: fresh %v kept %v, want fresh [0] kept [false true false]", tr.fresh, tr.kept)
	}
	// Codes of another width keep nothing.
	var narrow Codes
	narrow.Init(p, 3)
	narrow.SetAll(states, []WorkerInfo{{}, {}, {}})
	tr.observe(&narrow)
	if !slices.Equal(tr.fresh, []int{0, 1}) || tr.kept[0] || tr.kept[1] {
		t.Fatalf("width change: fresh %v kept %v, want all UP fresh", tr.fresh, tr.kept)
	}
}

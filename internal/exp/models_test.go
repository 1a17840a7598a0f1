package exp

import (
	"context"
	"strings"
	"testing"

	"tightsched/internal/avail"
)

// cheapSemiMarkov keeps the calibration fit fast for tests.
func cheapSemiMarkov() *avail.SemiMarkovModel {
	m := avail.NewSemiMarkov(0.6)
	m.CalibrationSlots = 2_000
	return m
}

// TestSweepModelsAxisEndToEnd is the tentpole acceptance path: a campaign
// with Markov and semi-Markov ground truths runs through Run, slices per
// model, and renders a Table III.
func TestSweepModelsAxisEndToEnd(t *testing.T) {
	s := tinySweep([]string{"IE", "Y-IE", "RANDOM"})
	s.Models = []avail.Model{avail.MarkovModel{}, cheapSemiMarkov()}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.InstanceCount() != 2*1*2*2*2 {
		t.Fatalf("instance count %d", s.InstanceCount())
	}
	res, err := Run(context.Background(), s, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != s.InstanceCount()*3 {
		t.Fatalf("%d instances", len(res.Instances))
	}
	counts := map[string]int{}
	for _, inst := range res.Instances {
		counts[inst.Model]++
	}
	if counts["markov"] != counts["semimarkov"] || counts["markov"] == 0 {
		t.Fatalf("per-model counts %v", counts)
	}
	models := res.Models()
	if len(models) != 2 || models[0] != "markov" || models[1] != "semimarkov" {
		t.Fatalf("models %v", models)
	}

	tables, err := res.TableIII(ReferenceHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("%d model tables", len(tables))
	}
	for _, mt := range tables {
		if len(mt.Rows) != 3 {
			t.Fatalf("model %s has %d rows", mt.Model, len(mt.Rows))
		}
	}
	out := FormatTableIII(tables)
	if !strings.Contains(out, "availability model: semimarkov") || !strings.Contains(out, "RANDOM") {
		t.Fatalf("table III:\n%s", out)
	}

	// Per-model slices must partition the pooled aggregation's trials.
	markovRows, err := res.TableForModel(ReferenceHeuristic, "markov")
	if err != nil {
		t.Fatal(err)
	}
	if len(markovRows) != 3 {
		t.Fatalf("%d markov rows", len(markovRows))
	}
}

// TestSweepMarkovModelAxisMatchesImplicit requires the explicit
// single-model axis to reproduce the default campaign exactly.
func TestSweepMarkovModelAxisMatchesImplicit(t *testing.T) {
	s := tinySweep([]string{"IE", "RANDOM"})
	implicit, err := Run(context.Background(), s, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Models = []avail.Model{avail.MarkovModel{}}
	explicit, err := Run(context.Background(), s, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(implicit.Instances) != len(explicit.Instances) {
		t.Fatalf("instance counts differ: %d vs %d", len(implicit.Instances), len(explicit.Instances))
	}
	for i := range implicit.Instances {
		if implicit.Instances[i] != explicit.Instances[i] {
			t.Fatalf("instance %d: %+v != %+v", i, implicit.Instances[i], explicit.Instances[i])
		}
	}
}

// TestTableIIIOnLegacyInstances aggregates results whose instances
// predate the model axis (empty Model): they count as "markov"
// throughout, so TableIII must still produce a table.
func TestTableIIIOnLegacyInstances(t *testing.T) {
	res := &Result{Instances: []InstanceResult{
		{Point: Point{5, 1, 0}, Trial: 0, Heuristic: "IE", Makespan: 100},
		{Point: Point{5, 1, 0}, Trial: 0, Heuristic: "RANDOM", Makespan: 300},
	}}
	tables, err := res.TableIII(ReferenceHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].Model != "markov" || len(tables[0].Rows) != 2 {
		t.Fatalf("tables: %+v", tables)
	}
}

// TestSweepModelPanicBecomesError runs a trace model that cannot cover
// the sweep's platforms: its size-mismatch panic must surface as an
// error from Run, not crash the worker pool.
func TestSweepModelPanicBecomesError(t *testing.T) {
	s := tinySweep([]string{"IE"})
	s.Scenarios = 1
	s.Trials = 1
	tm, err := avail.NewTraceModel("short", []string{"uu", "uu"})
	if err != nil {
		t.Fatal(err)
	}
	s.Models = []avail.Model{tm}
	if _, err := Run(context.Background(), s, RunOptions{}); err == nil || !strings.Contains(err.Error(), "short") {
		t.Fatalf("err = %v, want model panic surfaced", err)
	}
}

func TestSweepModelValidation(t *testing.T) {
	s := tinySweep(nil)
	s.Models = []avail.Model{nil}
	if s.Validate() == nil {
		t.Fatal("nil model accepted")
	}
	s.Models = []avail.Model{avail.MarkovModel{}, avail.MarkovModel{}}
	if s.Validate() == nil {
		t.Fatal("duplicate model names accepted")
	}
}

// TestSweepTraceModel runs a replayed availability log through the
// harness: every processor permanently UP, so nothing can fail.
func TestSweepTraceModel(t *testing.T) {
	s := tinySweep([]string{"IE"})
	s.Scenarios = 1
	s.Trials = 1
	script := make([]string, s.P)
	for q := range script {
		script[q] = strings.Repeat("u", 4)
	}
	tm, err := avail.NewTraceModel("alwaysup", script)
	if err != nil {
		t.Fatal(err)
	}
	s.Models = []avail.Model{tm}
	res, err := Run(context.Background(), s, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range res.Instances {
		if inst.Failed {
			t.Fatalf("failed instance under always-up trace: %+v", inst)
		}
		if inst.Model != "alwaysup" {
			t.Fatalf("model %q", inst.Model)
		}
	}
}

package exp

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tightsched/internal/avail"
)

// gridTestSweep shrinks QuickOnlineSweep to test scale while keeping
// every axis: both arrival kinds, all three admission policies, both
// preemption policies, two trials.
func gridTestSweep() GridSweep {
	g := QuickOnlineSweep()
	g.Horizon = 6000
	g.Arrivals[0].MeanGap = 60
	g.Arrivals[0].Apps = 6
	return g
}

// TestGridDeterministicAcrossWorkers: the campaign's instances — and
// the rendered Table IV — must be byte-identical whether one worker or
// several ran it, although concurrent workers share each trial's
// availability history and run its policy instances in any order. This
// is the online layer's core acceptance property.
func TestGridDeterministicAcrossWorkers(t *testing.T) {
	g := gridTestSweep()
	g.Workers = 1
	serial, err := RunGrid(context.Background(), g, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Instances) != g.InstanceCount() {
		t.Fatalf("serial run produced %d instances, want %d", len(serial.Instances), g.InstanceCount())
	}
	want := FormatTableIV(serial.TableIV())
	for _, workers := range []int{2, 4, 8} {
		g.Workers = workers
		parallel, err := RunGrid(context.Background(), g, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial.Instances, parallel.Instances) {
			t.Fatalf("instances differ between 1 and %d workers", workers)
		}
		if got := FormatTableIV(parallel.TableIV()); got != want {
			t.Fatalf("Table IV differs between worker counts:\n--- 1 worker\n%s--- %d workers\n%s", want, workers, got)
		}
	}
}

// TestGridTrialsShareAndRelease: every policy job of one (arrival,
// trial) gets the same platform and history, other trials get their
// own, and a trial's state is dropped exactly when its last job
// finishes.
func TestGridTrialsShareAndRelease(t *testing.T) {
	g := gridTestSweep()
	var jobs []GridKey
	for _, adm := range g.Admissions {
		for _, pre := range g.Preemptions {
			for trial := 0; trial < g.Trials; trial++ {
				jobs = append(jobs, GridKey{Arrival: "trace", Admission: adm, Preemption: pre, Trial: trial})
			}
		}
	}
	model, err := avail.Builtin(g.Model)
	if err != nil {
		t.Fatal(err)
	}
	ts := newGridTrials(&g, model)
	ts.add(jobs)
	if len(ts.byKey) != g.Trials {
		t.Fatalf("%d trials tracked, want %d", len(ts.byKey), g.Trials)
	}
	first := map[int]*gridTrial{}
	for i, key := range jobs {
		tr := ts.acquire(key)
		if tr.seed != g.GridTrialSeed(key.Arrival, key.Trial) {
			t.Fatalf("job %+v got the seed of another trial", key)
		}
		if prev, ok := first[key.Trial]; !ok {
			first[key.Trial] = tr
		} else if tr != prev || tr.history != prev.history || tr.platform != prev.platform {
			t.Fatalf("job %+v got a different trial state than its trial's first job", key)
		}
		ts.release(key)
		// The trial is dropped exactly after its last job.
		last := true
		for _, later := range jobs[i+1:] {
			if later.Trial == key.Trial {
				last = false
			}
		}
		if _, held := ts.byKey[gridTrialKey{key.Arrival, key.Trial}]; held == last {
			t.Fatalf("after job %d (%+v): trial held = %v, want %v", i, key, held, !last)
		}
	}
	if first[0] == first[1] || first[0].history == first[1].history {
		t.Fatal("two trials share one history")
	}
}

// TestGridArrivalsSharedAcrossPolicies: the (arrival, trial) seed is
// independent of the policy axes, so every policy combination faces the
// same applications — the comparison Table IV draws is between
// policies, never between workloads.
func TestGridArrivalsSharedAcrossPolicies(t *testing.T) {
	g := gridTestSweep()
	res, err := RunGrid(context.Background(), g, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	apps := map[[2]string]int{} // (arrival, trial-as-string) -> Apps
	for _, in := range res.Instances {
		key := [2]string{in.Arrival, string(rune('0' + in.Trial))}
		if prev, ok := apps[key]; ok {
			if in.Apps != prev {
				t.Fatalf("instance %+v saw %d apps; another policy combo of the same arrival/trial saw %d",
					in.GridKey, in.Apps, prev)
			}
			continue
		}
		apps[key] = in.Apps
	}
}

// TestGridCancelResumeByteIdentical: a journaled campaign cancelled
// partway resumes from the journal alone and reproduces the
// uninterrupted run — instances and rendered bytes — exactly.
func TestGridCancelResumeByteIdentical(t *testing.T) {
	g := gridTestSweep()
	ref, err := RunGrid(context.Background(), g, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	refTable := FormatTableIV(ref.TableIV())

	path := filepath.Join(t.TempDir(), "grid.journal")
	j, err := CreateGridJournal(path, &g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	limit := len(ref.Instances) / 3
	g.Workers = 1
	_, err = RunGrid(ctx, g, j, func(done, total int) {
		if done >= limit {
			cancel()
		}
	}, nil)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	journaled := j.DoneCount()
	if journaled < limit || journaled >= len(ref.Instances) {
		t.Fatalf("journal holds %d instances, want in [%d, %d)", journaled, limit, len(ref.Instances))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var firstDone, lastDone, total int
	res, err := ResumeGrid(context.Background(), path, 0, func(done, tot int) {
		if firstDone == 0 {
			firstDone = done
		}
		lastDone, total = done, tot
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if firstDone < journaled {
		t.Fatalf("resume re-ran journaled instances: first progress %d, journal had %d", firstDone, journaled)
	}
	if lastDone != total || total != len(ref.Instances) {
		t.Fatalf("resume progress ended %d/%d, want %d/%d", lastDone, total, len(ref.Instances), len(ref.Instances))
	}
	if !reflect.DeepEqual(res.Instances, ref.Instances) {
		t.Fatal("instances differ after cancel + resume")
	}
	if got := FormatTableIV(res.TableIV()); got != refTable {
		t.Fatalf("Table IV differs after resume:\n--- uninterrupted\n%s--- resumed\n%s", refTable, got)
	}

	// A second resume of the now-complete journal is pure replay — and,
	// under an already-cancelled context, a cancellation: a cancelled
	// campaign never reports success, even with nothing left to run.
	again, err := ResumeGrid(context.Background(), path, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Instances, ref.Instances) {
		t.Fatal("replay of the complete journal differs")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ResumeGrid(cancelled, path, 0, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("resume of the complete journal under a cancelled context returned %v, want context.Canceled", err)
	}
}

// TestGridJournalSpecMismatch: a journal only resumes the campaign it
// was created for.
func TestGridJournalSpecMismatch(t *testing.T) {
	g := gridTestSweep()
	path := filepath.Join(t.TempDir(), "grid.journal")
	j, err := CreateGridJournal(path, &g)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	other := g
	other.Seed++
	if _, err := OpenGridJournal(path, &other); err == nil {
		t.Fatal("journal of a different campaign opened for appending")
	} else if !strings.Contains(err.Error(), "journal") {
		t.Errorf("mismatch error %q should mention the journal", err)
	}
}

// TestGridSpecRoundTrip: Spec() captures everything that affects
// results, and Sweep() reconstructs an equivalent campaign.
func TestGridSpecRoundTrip(t *testing.T) {
	g := gridTestSweep()
	back := g.Spec().Sweep()
	g.Workers = 0 // execution-only; not part of the identity
	if !reflect.DeepEqual(back, g) {
		t.Fatalf("round trip lost fields:\n%+v\n%+v", back, g)
	}
}

package exp

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
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
// eight ran it. This is the online layer's core acceptance property.
func TestGridDeterministicAcrossWorkers(t *testing.T) {
	g := gridTestSweep()
	serial, err := RunGridContext(context.Background(), g, GridRunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunGridContext(context.Background(), g, GridRunOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Instances) != g.InstanceCount() {
		t.Fatalf("serial run produced %d instances, want %d", len(serial.Instances), g.InstanceCount())
	}
	if !reflect.DeepEqual(serial.Instances, parallel.Instances) {
		t.Fatal("instances differ between 1 and 8 workers")
	}
	if a, b := FormatTableIV(serial.TableIV()), FormatTableIV(parallel.TableIV()); a != b {
		t.Fatalf("Table IV differs between worker counts:\n--- 1 worker\n%s--- 8 workers\n%s", a, b)
	}
}

// TestGridArrivalsSharedAcrossPolicies: the (arrival, trial) seed is
// independent of the policy axes, so every policy combination faces the
// same applications — the comparison Table IV draws is between
// policies, never between workloads.
func TestGridArrivalsSharedAcrossPolicies(t *testing.T) {
	g := gridTestSweep()
	res, err := RunGridContext(context.Background(), g, GridRunOptions{})
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
	ref, err := RunGridContext(context.Background(), g, GridRunOptions{})
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
	_, err = RunGridContext(ctx, g, GridRunOptions{
		Workers: 1,
		Journal: j,
		Progress: func(done, total int) {
			if done >= limit {
				cancel()
			}
		},
	})
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
	res, err := ResumeGrid(context.Background(), path, GridRunOptions{
		Progress: func(done, tot int) {
			if firstDone == 0 {
				firstDone = done
			}
			lastDone, total = done, tot
		},
	})
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

	// A second resume of the now-complete journal is pure replay.
	again, err := ResumeGrid(context.Background(), path, GridRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Instances, ref.Instances) {
		t.Fatal("replay of the complete journal differs")
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

package exp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// journalSweep shrinks QuickSweep(10) — the Table II campaign — to test
// scale while keeping its shape: all three ncom values, several
// heuristics, multiple scenarios and trials.
func journalSweep() Sweep {
	s := QuickSweep(10)
	s.Wmins = []int{1, 2}
	s.Cap = 30_000
	s.Heuristics = []string{"IE", "Y-IE", "RANDOM", "IAY"}
	return s
}

// journalHarness drives the journal contract tests (torn tails, corrupt
// records, spec mismatches, refusing to clobber) over one journal kind.
type journalHarness struct {
	kind string
	// create starts an empty journal of the harness campaign and closes it.
	create func(path string, format Format) error
	// run journals the campaign to path, cut short after stopAfter live
	// instances when stopAfter is positive.
	run func(t *testing.T, path string, format Format, stopAfter int)
	// open reopens path for appending and reports its instance count.
	open func(path string) (int, error)
	// resume completes the journal at path and returns its instances.
	resume func(path string) (any, error)
	// mismatch runs a different campaign against the journal at path.
	mismatch func(path string) error
	// ref returns an uninterrupted run's instances.
	ref func(t *testing.T) any
}

// contractGrid is the grid campaign of the journal contract tests: six
// cheap instances, so a corrupt record can sit mid-file.
func contractGrid() GridSweep {
	g := fixtureGrid()
	g.Trials = 3
	return g
}

func journalHarnesses() []journalHarness {
	return []journalHarness{{
		kind: "sweep",
		create: func(path string, format Format) error {
			j, err := CreateJournalFormat(path, codecSweep(), Shard{}, format)
			if err != nil {
				return err
			}
			return j.Close()
		},
		run: func(t *testing.T, path string, format Format, stopAfter int) {
			t.Helper()
			journalRun(t, path, codecSweep(), format, stopAfter)
		},
		open: func(path string) (int, error) {
			j, err := OpenJournal(path)
			if err != nil {
				return 0, err
			}
			defer j.Close()
			return j.DoneCount(), nil
		},
		resume: func(path string) (any, error) {
			res, err := Resume(path, nil)
			if err != nil {
				return nil, err
			}
			return res.Instances, nil
		},
		mismatch: func(path string) error {
			j, err := OpenJournal(path)
			if err != nil {
				return err
			}
			defer j.Close()
			other := codecSweep()
			other.Seed++
			_, err = RunWith(other, RunOptions{Journal: j})
			return err
		},
		ref: func(t *testing.T) any {
			res, err := Run(codecSweep(), nil)
			if err != nil {
				t.Fatal(err)
			}
			return res.Instances
		},
	}, {
		kind: "grid",
		create: func(path string, format Format) error {
			g := contractGrid()
			j, err := CreateGridJournalFormat(path, &g, format)
			if err != nil {
				return err
			}
			return j.Close()
		},
		run: func(t *testing.T, path string, format Format, stopAfter int) {
			t.Helper()
			g := contractGrid()
			j, err := CreateGridJournalFormat(path, &g, format)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(t.Context())
			defer cancel()
			_, err = RunGridContext(ctx, g, GridRunOptions{Journal: j, Workers: 1,
				Progress: func(done, _ int) {
					if stopAfter > 0 && done >= stopAfter {
						cancel()
					}
				}})
			if (stopAfter > 0 && !errors.Is(err, context.Canceled)) || (stopAfter <= 0 && err != nil) {
				t.Fatalf("journaled run returned %v", err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		},
		open: func(path string) (int, error) {
			g := contractGrid()
			j, err := OpenGridJournal(path, &g)
			if err != nil {
				return 0, err
			}
			defer j.Close()
			return j.DoneCount(), nil
		},
		resume: func(path string) (any, error) {
			res, err := ResumeGrid(context.Background(), path, GridRunOptions{})
			if err != nil {
				return nil, err
			}
			return res.Instances, nil
		},
		mismatch: func(path string) error {
			g := contractGrid()
			j, err := OpenGridJournal(path, &g)
			if err != nil {
				return err
			}
			defer j.Close()
			other := contractGrid()
			other.Seed++
			_, err = RunGridContext(context.Background(), other, GridRunOptions{Journal: j})
			return err
		},
		ref: func(t *testing.T) any {
			res, err := RunGridContext(t.Context(), contractGrid(), GridRunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return res.Instances
		},
	}}
}

// TestJournalResumeByteIdentical is the acceptance path: a journaled
// QuickSweep-style campaign is interrupted partway (with a torn final
// line, as a crash mid-write would leave), resumed from the journal
// alone, and must reproduce the uninterrupted run's Table II rows
// byte-for-byte.
func TestJournalResumeByteIdentical(t *testing.T) {
	s := journalSweep()

	// The uninterrupted reference run.
	ref, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	refRows, err := ref.Table(ReferenceHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	refTable := FormatTable(refRows)

	// The interrupted run: a sink that fails after a third of the
	// instances simulates a crash; everything journaled so far survives.
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := CreateJournal(path, s, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	limit := len(ref.Instances) / 3
	interrupted := errors.New("interrupted")
	n := 0
	_, err = RunWith(s, RunOptions{
		Journal: j,
		Sink: func(InstanceResult) error {
			n++
			if n >= limit {
				return interrupted
			}
			return nil
		},
	})
	if !errors.Is(err, interrupted) {
		t.Fatalf("interrupted run returned %v, want the sink's error", err)
	}
	journaled := j.DoneCount()
	if journaled < limit || journaled >= len(ref.Instances) {
		t.Fatalf("journal holds %d instances, want in [%d, %d)", journaled, limit, len(ref.Instances))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash can also tear the line being written: append half a record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"model":"markov","ncom":5,"wm`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Resume from the journal alone and require bit-identical everything.
	var firstDone, lastDone, total int
	res, err := Resume(path, func(done, tot int) {
		if firstDone == 0 {
			firstDone = done
		}
		lastDone, total = done, tot
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
	if len(res.Instances) != len(ref.Instances) {
		t.Fatalf("resumed run has %d instances, want %d", len(res.Instances), len(ref.Instances))
	}
	for i := range res.Instances {
		if res.Instances[i] != ref.Instances[i] {
			t.Fatalf("instance %d differs after resume:\n%+v\n%+v", i, res.Instances[i], ref.Instances[i])
		}
	}
	rows, err := res.Table(ReferenceHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatTable(rows); got != refTable {
		t.Fatalf("Table II rows differ after resume:\n--- uninterrupted\n%s--- resumed\n%s", refTable, got)
	}
}

// TestResumeOfCompleteJournalRunsNothing re-opens a finished campaign's
// journal: everything is already recorded, so resume is pure replay.
func TestResumeOfCompleteJournalRunsNothing(t *testing.T) {
	s := tinySweep([]string{"IE", "RANDOM"})
	path := filepath.Join(t.TempDir(), "done.journal")
	j, err := CreateJournal(path, s, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunWith(s, RunOptions{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	var calls int
	var firstDone, total int
	res, err := Resume(path, func(done, tot int) {
		calls++
		firstDone, total = done, tot
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || firstDone != total {
		t.Fatalf("complete journal resume reported progress %d times, last %d/%d; want one full report", calls, firstDone, total)
	}
	if len(res.Instances) != len(full.Instances) {
		t.Fatalf("replayed %d instances, want %d", len(res.Instances), len(full.Instances))
	}
	for i := range res.Instances {
		if res.Instances[i] != full.Instances[i] {
			t.Fatalf("instance %d differs in replay", i)
		}
	}
}

// TestJournalSpecMismatch: a journal belongs to exactly one campaign.
func TestJournalSpecMismatch(t *testing.T) {
	for _, k := range journalHarnesses() {
		t.Run(k.kind, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "a.journal")
			if err := k.create(path, FormatJSONL); err != nil {
				t.Fatal(err)
			}
			if err := k.mismatch(path); err == nil {
				t.Fatal("journal accepted a different campaign")
			}
		})
	}
	t.Run("shard", func(t *testing.T) {
		s := tinySweep([]string{"IE", "RANDOM"})
		j, err := CreateJournal(filepath.Join(t.TempDir(), "a.journal"), s, Shard{})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if _, err := RunWith(s, RunOptions{Journal: j, Shard: Shard{Index: 0, Count: 2}}); err == nil {
			t.Fatal("whole-campaign journal accepted a sharded run")
		}
	})
}

// TestJournalCorruptMiddleRejected: damage before the tail is not a torn
// write and must not be silently dropped.
func TestJournalCorruptMiddleRejected(t *testing.T) {
	for _, k := range journalHarnesses() {
		t.Run(k.kind, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "corrupt.journal")
			k.run(t, path, FormatJSONL, 0)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitAfter(string(data), "\n")
			if len(lines) < 4 {
				t.Fatalf("journal too short to corrupt: %d lines", len(lines))
			}
			lines[2] = "NOT JSON\n"
			if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := k.open(path); err == nil {
				t.Fatal("corrupt middle line accepted")
			}
		})
	}
}

// TestMergeJournalsTolerateTornTail: a torn tail — however the crash
// left it — is forgiven in *any* input journal, not just the one being
// resumed. A shard journal torn mid-record merges cleanly as long as an
// overlapping journal (a requeued cluster lease, a re-run shard) covers
// the lost instance; the same tear is also resumable in place.
func TestMergeJournalsTolerateTornTail(t *testing.T) {
	s := tinySweep([]string{"IE", "RANDOM"})

	ref, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}

	runShard := func(dir string, name string, sh Shard) string {
		t.Helper()
		path := filepath.Join(dir, name)
		j, err := CreateJournal(path, s, sh)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunWith(s, RunOptions{Journal: j, Shard: sh}); err != nil {
			t.Fatal(err)
		}
		j.Close()
		return path
	}

	tear := map[string]func(t *testing.T, path string){
		// A write cut short: the final record loses its newline.
		"cut": func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		// Filesystem crash recovery zero-fills the tail of the last
		// block: the final line keeps its newline but parses as garbage.
		"zero-filled": func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			cut := strings.LastIndexByte(strings.TrimSuffix(string(data), "\n"), '\n') + 1
			torn := append([]byte(nil), data[:cut]...)
			for i := cut; i < len(data)-1; i++ {
				torn = append(torn, 0)
			}
			torn = append(torn, '\n')
			if err := os.WriteFile(path, torn, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}

	for name, damage := range tear {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			a := runShard(dir, "a.journal", Shard{Index: 0, Count: 2})
			b := runShard(dir, "b.journal", Shard{Index: 1, Count: 2})
			// The overlapping journal a requeued lease would leave: the
			// same shard, run to completion elsewhere.
			b2 := runShard(dir, "b2.journal", Shard{Index: 1, Count: 2})
			damage(t, b)

			// The torn journal must load short, not fail.
			partial, _, err := LoadJournal(b)
			if err != nil {
				t.Fatalf("torn shard journal failed to load: %v", err)
			}
			full, _, err := LoadJournal(b2)
			if err != nil {
				t.Fatal(err)
			}
			if len(partial.Instances) != len(full.Instances)-1 {
				t.Fatalf("torn journal holds %d instances, want %d (one lost to the tear)",
					len(partial.Instances), len(full.Instances)-1)
			}

			// Merging with the overlap yields the complete campaign.
			merged, err := MergeJournals(a, b, b2)
			if err != nil {
				t.Fatalf("MergeJournals with a torn input: %v", err)
			}
			if len(merged.Instances) != len(ref.Instances) {
				t.Fatalf("merged %d instances, want %d", len(merged.Instances), len(ref.Instances))
			}
			for i := range merged.Instances {
				if merged.Instances[i] != ref.Instances[i] {
					t.Fatalf("instance %d differs after torn-tail merge", i)
				}
			}

			// The same tear is resumable in place: the lost instance is
			// re-run, bit-identically.
			res, err := Resume(b, nil)
			if err != nil {
				t.Fatalf("resume of torn shard: %v", err)
			}
			if len(res.Instances) != len(full.Instances) {
				t.Fatalf("resumed shard has %d instances, want %d", len(res.Instances), len(full.Instances))
			}
			for i := range res.Instances {
				if res.Instances[i] != full.Instances[i] {
					t.Fatalf("instance %d differs after torn-tail resume", i)
				}
			}
		})
	}
}

// TestCreateJournalRefusesExisting: resuming goes through OpenJournal;
// CreateJournal never clobbers history.
func TestCreateJournalRefusesExisting(t *testing.T) {
	for _, k := range journalHarnesses() {
		t.Run(k.kind, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "x.journal")
			if err := k.create(path, FormatJSONL); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := k.create(path, FormatBinary); err == nil {
				t.Fatal("journal creation overwrote an existing journal")
			}
			if after, _ := os.ReadFile(path); string(after) != string(before) {
				t.Fatal("refused journal creation still modified the existing file")
			}
		})
	}
}

// TestDiscardInstances: streaming consumers can bound memory; the sink
// still sees every instance.
func TestDiscardInstances(t *testing.T) {
	s := tinySweep([]string{"IE", "RANDOM"})
	seen := 0
	res, err := RunWith(s, RunOptions{
		DiscardInstances: true,
		Sink:             func(InstanceResult) error { seen++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := s.InstanceCount() * 2; seen != want {
		t.Fatalf("sink saw %d instances, want %d", seen, want)
	}
	if res.Instances != nil {
		t.Fatalf("DiscardInstances kept %d instances", len(res.Instances))
	}
}

// TestSweepSpecRoundTrip: a built-in-model campaign reconstructs exactly.
func TestSweepSpecRoundTrip(t *testing.T) {
	s := tinySweep([]string{"IE", "Y-IE"})
	spec := s.Spec()
	back, err := spec.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Spec(); fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", spec) {
		t.Fatalf("spec round trip:\n%+v\n%+v", got, spec)
	}
	if spec.Models[0] != "markov" || len(spec.Models) != 1 {
		t.Fatalf("default model spec: %v", spec.Models)
	}
}

// TestReadersRejectWrongKind: every reader checks the header's kind
// marker, so a journal of another kind is rejected — in either format —
// with an error naming both kinds, and nothing is written.
func TestReadersRejectWrongKind(t *testing.T) {
	ctx := t.Context()
	g := fixtureGrid()
	readers := []struct {
		name, kind string // kind is what the reader accepts
		read       func(path string) error
	}{
		{"OpenJournal", "sweep", func(p string) error { _, err := OpenJournal(p); return err }},
		{"LoadJournal", "sweep", func(p string) error { _, _, err := LoadJournal(p); return err }},
		{"AggregateJournal", "sweep", func(p string) error { _, err := AggregateJournal(p); return err }},
		{"ResumeWith", "sweep", func(p string) error { _, err := ResumeWith(ctx, p, RunOptions{}); return err }},
		{"MergeJournals", "sweep", func(p string) error { _, err := MergeJournals(p); return err }},
		{"ExportColumns", "sweep", func(p string) error { return ExportColumns(p, p+".columns") }},
		{"OpenGridJournal", "grid", func(p string) error { _, err := OpenGridJournal(p, &g); return err }},
		{"LoadGridJournal", "grid", func(p string) error { _, err := LoadGridJournal(p); return err }},
		{"AggregateGridJournal", "grid", func(p string) error { _, err := AggregateGridJournal(p); return err }},
		{"ResumeGrid", "grid", func(p string) error { _, err := ResumeGrid(ctx, p, GridRunOptions{}); return err }},
		{"ConvertJournal", "sweep or grid", func(p string) error { return ConvertJournal(p, p+".converted", FormatJSONL) }},
	}
	// Journals of each kind in each format: the committed fixtures, plus
	// a header of a kind no reader knows.
	bogus := []byte(`{"v":1,"kind":"bogus","spec":{}}`)
	for _, format := range []Format{FormatJSONL, FormatBinary} {
		ext := map[Format]string{FormatJSONL: "jsonl", FormatBinary: "bin"}[format]
		for _, kind := range []string{"sweep", "grid", "bogus"} {
			for _, r := range readers {
				if strings.Contains(r.kind, kind) {
					continue
				}
				t.Run(r.name+"/"+kind+"."+ext, func(t *testing.T) {
					path := filepath.Join(t.TempDir(), "journal")
					if kind == "bogus" {
						w, err := createRecordLog(path, format, json.RawMessage(bogus))
						if err != nil {
							t.Fatal(err)
						}
						w.Close()
					} else {
						data, err := os.ReadFile(filepath.Join("testdata", kind+"."+ext))
						if err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(path, data, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					before, _ := os.ReadFile(path)
					err := r.read(path)
					var kerr *kindError
					if !errors.As(err, &kerr) {
						t.Fatalf("%s accepted a %s journal (err %v)", r.name, kind, err)
					}
					if want := fmt.Sprintf("is a %s journal, not a %s journal", kind, r.kind); !strings.Contains(err.Error(), want) {
						t.Fatalf("error %q does not say %q", err, want)
					}
					if after, _ := os.ReadFile(path); string(after) != string(before) {
						t.Fatal("rejected journal was modified")
					}
					for _, out := range []string{path + ".converted", path + ".columns/" + columnsManifestName} {
						if _, err := os.Stat(out); err == nil {
							t.Fatalf("rejected journal still produced %s", out)
						}
					}
				})
			}
		}
	}
}

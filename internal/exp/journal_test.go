package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tightsched/internal/avail"
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
			res, err := Resume(context.Background(), path, RunOptions{})
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
			_, err = Run(context.Background(), other, RunOptions{Journal: j})
			return err
		},
		ref: func(t *testing.T) any {
			res, err := Run(context.Background(), codecSweep(), RunOptions{})
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
			g.Workers = 1
			_, err = RunGrid(ctx, g, j, func(done, _ int) {
				if stopAfter > 0 && done >= stopAfter {
					cancel()
				}
			}, nil)
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
			res, err := ResumeGrid(context.Background(), path, 0, nil, nil)
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
			_, err = RunGrid(context.Background(), other, j, nil, nil)
			return err
		},
		ref: func(t *testing.T) any {
			res, err := RunGrid(t.Context(), contractGrid(), nil, nil, nil)
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
	ref, err := Run(context.Background(), s, RunOptions{})
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
	_, err = Run(context.Background(), s, RunOptions{
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
	res, err := Resume(context.Background(), path, RunOptions{Progress: func(done, tot int) {
		if firstDone == 0 {
			firstDone = done
		}
		lastDone, total = done, tot
	}})
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
	full, err := Run(context.Background(), s, RunOptions{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	var calls int
	var firstDone, total int
	res, err := Resume(context.Background(), path, RunOptions{Progress: func(done, tot int) {
		calls++
		firstDone, total = done, tot
	}})
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
		if _, err := Run(context.Background(), s, RunOptions{Journal: j, Shard: Shard{Index: 0, Count: 2}}); err == nil {
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

	ref, err := Run(context.Background(), s, RunOptions{})
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
		if _, err := Run(context.Background(), s, RunOptions{Journal: j, Shard: sh}); err != nil {
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
			res, err := Resume(context.Background(), b, RunOptions{})
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
	res, err := Run(context.Background(), s, RunOptions{
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
		// Resume keeps the subtest label of its former name, ResumeWith,
		// so the test IDs stay stable.
		{"ResumeWith", "sweep", func(p string) error { _, err := Resume(ctx, p, RunOptions{}); return err }},
		{"MergeJournals", "sweep", func(p string) error { _, err := MergeJournals(p); return err }},
		{"ExportColumns", "sweep", func(p string) error { return ExportColumns(p, p+".columns") }},
		{"OpenGridJournal", "grid", func(p string) error { _, err := OpenGridJournal(p, &g); return err }},
		{"AggregateGridJournal", "grid", func(p string) error { _, err := AggregateGridJournal(p); return err }},
		// The read-only grid load keeps the subtest label of the deleted
		// LoadGridJournal, its former wrapper, so the test IDs stay stable.
		{"LoadGridJournal", "grid", func(p string) error { _, _, err := readJournal(gridKind, p); return err }},
		{"ResumeGrid", "grid", func(p string) error { _, err := ResumeGrid(ctx, p, 0, nil, nil); return err }},
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
						w, err := CreateRecordLog(path, format, bogus)
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

// TestJournalAppendDuplicateKey: a journal holds one record per key. An
// identical duplicate writes nothing; a conflicting one is an error that
// names the key and leaves the file unchanged, so every reader sees the
// first record.
func TestJournalAppendDuplicateKey(t *testing.T) {
	s := tinySweep([]string{"IE", "RANDOM"})
	c := s.Coords()[0]
	for _, format := range []Format{FormatJSONL, FormatBinary} {
		t.Run(format.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "dup."+format.String())
			j, err := CreateJournalFormat(path, s, Shard{}, format)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			first := InstanceResult{Point: c.Point, Trial: c.Trial, Model: "markov", Heuristic: "RANDOM", Makespan: 1000}
			other := first
			other.Heuristic = "IE"
			for _, inst := range []InstanceResult{first, other} {
				if err := j.Append(inst); err != nil {
					t.Fatal(err)
				}
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			same := first
			same.Model = "" // the implicit default model: the same record
			if err := j.Append(same); err != nil {
				t.Fatalf("identical duplicate: %v", err)
			}
			conflict := first
			conflict.Makespan = 1500
			err = j.Append(conflict)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%+v", first.Key())) {
				t.Fatalf("conflicting duplicate: err %v, want one naming %+v", err, first.Key())
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
				t.Fatalf("duplicate appends changed the file:\n got %q\nwant %q", after, before)
			}
			if got, _ := j.Done(first.Key()); got != first {
				t.Fatalf("Done holds %+v, want the first record %+v", got, first)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			loaded, _, err := LoadJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := []InstanceResult{other, first}; !reflect.DeepEqual(loaded.Instances, want) {
				t.Fatalf("LoadJournal: %+v, want %+v", loaded.Instances, want)
			}
			agg, err := AggregateJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := agg.Table(ReferenceHeuristic)
			if err != nil {
				t.Fatal(err)
			}
			want, err := loaded.Table(ReferenceHeuristic)
			if err != nil {
				t.Fatal(err)
			}
			if FormatTable(got) != FormatTable(want) {
				t.Fatalf("AggregateJournal and LoadJournal disagree:\n%s\nwant\n%s", FormatTable(got), FormatTable(want))
			}
		})
	}
}

// TestJournalReadersAgreeOnDuplicateKey: a journal file that records a
// key twice (here a conflicting record appended by hand, bypassing
// Append) reads the same through every reader: the key's first record
// wins, as it does in Append, and the later one is not exported.
func TestJournalReadersAgreeOnDuplicateKey(t *testing.T) {
	s := tinySweep([]string{"IE", "RANDOM"})
	for _, format := range []Format{FormatJSONL, FormatBinary} {
		t.Run(format.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "dup."+format.String())
			j, err := CreateJournalFormat(path, s, Shard{}, format)
			if err != nil {
				t.Fatal(err)
			}
			var first InstanceResult
			for i, c := range s.Coords() {
				for _, h := range s.Heuristics {
					inst := InstanceResult{Point: c.Point, Trial: c.Trial, Model: c.Model, Heuristic: h,
						Makespan: int64(1000 + 100*i)}
					if h == "RANDOM" && i == 0 {
						first = inst
					}
					if err := j.Append(inst); err != nil {
						t.Fatal(err)
					}
				}
			}
			later := first
			later.Makespan *= 5
			rec, err := sweepKind.encode(nil, format, later)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.w.Append(rec); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			loaded, _, err := LoadJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(loaded.Instances); n != s.InstanceCount()*len(s.Heuristics) {
				t.Fatalf("LoadJournal holds %d instances, want %d", n, s.InstanceCount()*len(s.Heuristics))
			}
			for _, inst := range loaded.Instances {
				if inst.Key() == first.Key() && inst != first {
					t.Fatalf("LoadJournal keeps %+v, want the first record %+v", inst, first)
				}
			}
			opened, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := opened.Done(first.Key())
			count := opened.DoneCount()
			opened.Close()
			if got != first || count != len(loaded.Instances) {
				t.Fatalf("OpenJournal: Done %+v, DoneCount %d; want %+v, %d", got, count, first, len(loaded.Instances))
			}

			agg, err := AggregateJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			aggRows, err := agg.Table(ReferenceHeuristic)
			if err != nil {
				t.Fatal(err)
			}
			loadRows, err := loaded.Table(ReferenceHeuristic)
			if err != nil {
				t.Fatal(err)
			}
			if FormatTable(aggRows) != FormatTable(loadRows) {
				t.Fatalf("AggregateJournal and LoadJournal disagree:\n%s\nwant\n%s", FormatTable(aggRows), FormatTable(loadRows))
			}

			cols := filepath.Join(t.TempDir(), "cols")
			if err := ExportColumns(path, cols); err != nil {
				t.Fatal(err)
			}
			makespans, err := os.ReadFile(filepath.Join(cols, "makespan.i64"))
			if err != nil {
				t.Fatal(err)
			}
			if n := len(makespans) / 8; n != len(loaded.Instances) {
				t.Fatalf("ExportColumns wrote %d rows, LoadJournal holds %d instances", n, len(loaded.Instances))
			}
		})
	}
}

// indexCase is one journal of TestJournalIndexMatchesMap: the journal
// under test, a generator of random records for it, and how two records
// of one key compare.
type indexCase[K comparable, R, S any] struct {
	kind *journalKind[K, R, S]
	// create starts the journal under test at path.
	create func(path string) (*journal[K, R, S], error)
	// draw returns a random record: usually a coordinate of the journal,
	// sometimes a key off its grid.
	draw func(r *rand.Rand) R
	// vary returns a record of r's key that Append takes for an
	// identical duplicate when same is set, and for a conflict otherwise.
	vary func(r *rand.Rand, rec R, same bool) R
	// load reads the file through the kind's public loader, when it has
	// one beyond readJournal.
	load func(path string) ([]R, error)
}

// TestJournalIndexMatchesMap checks a journal's done index against a
// map model: seeded random Append sequences mix coordinates of the
// journal, keys off its grid (another shard's coordinates among them),
// identical and conflicting duplicates and the implicit default model's
// empty name. After each sequence Done, DoneCount, Instances and the
// file bytes must match the model, and again after OpenJournal and
// LoadJournal.
func TestJournalIndexMatchesMap(t *testing.T) {
	s := tinySweep([]string{"IE", "Y-IE", "RANDOM"})
	s.Models = []avail.Model{avail.MarkovModel{}, cheapSemiMarkov()}
	s.Ncoms = []int{10, 5} // not sorted: grid order is not Instances order
	s.Scenarios, s.Trials = 3, 40
	// 2·2·2·3·40 coordinates × 3 heuristics = 2,880 positions: three pages.
	drawSweep := func(r *rand.Rand) InstanceResult {
		inst := InstanceResult{
			Point: Point{Ncom: s.Ncoms[r.IntN(2)], Wmin: s.Wmins[r.IntN(2)], Scenario: r.IntN(s.Scenarios)},
			Trial: r.IntN(s.Trials), Model: []string{"markov", "", "semimarkov"}[r.IntN(3)],
			Heuristic: s.Heuristics[r.IntN(3)], Makespan: int64(r.IntN(5000)), Failed: r.IntN(20) == 0,
		}
		if r.IntN(8) == 0 {
			switch r.IntN(6) {
			case 0:
				inst.Model = "lognormal"
			case 1:
				inst.Point.Ncom = 7
			case 2:
				inst.Point.Wmin = 9
			case 3:
				inst.Point.Scenario = []int{-1, s.Scenarios}[r.IntN(2)]
			case 4:
				inst.Trial = []int{-1, s.Trials, 1 << 20}[r.IntN(3)]
			case 5:
				inst.Heuristic = "IP"
			}
		}
		return inst
	}
	varySweep := func(r *rand.Rand, inst InstanceResult, same bool) InstanceResult {
		if !same {
			inst.Makespan++
		} else if modelName(inst) == "markov" && r.IntN(2) == 0 {
			inst.Model = map[string]string{"": "markov", "markov": ""}[inst.Model]
		}
		return inst
	}
	loadSweep := func(path string) ([]InstanceResult, error) {
		res, _, err := LoadJournal(path)
		if err != nil {
			return nil, err
		}
		return res.Instances, nil
	}
	for _, format := range []Format{FormatJSONL, FormatBinary} {
		for _, shard := range []Shard{{}, {Index: 1, Count: 3}, {Index: 2, Count: 3}} {
			t.Run(fmt.Sprintf("sweep-%s-%s", format, shard), func(t *testing.T) {
				checkIndexAgainstMap(t, format, indexCase[Key, InstanceResult, SweepSpec]{
					kind: sweepKind,
					create: func(path string) (*Journal, error) {
						return CreateJournalFormat(path, s, shard, format)
					},
					draw: drawSweep, vary: varySweep, load: loadSweep,
				})
			})
		}
	}
	g := contractGrid()
	t.Run("grid", func(t *testing.T) {
		checkIndexAgainstMap(t, FormatJSONL, indexCase[GridKey, GridInstance, GridSpec]{
			kind: gridKind,
			create: func(path string) (*GridJournal, error) {
				return CreateGridJournalFormat(path, &g, FormatJSONL)
			},
			draw: func(r *rand.Rand) GridInstance {
				return GridInstance{
					GridKey: GridKey{Arrival: "trace", Admission: g.Admissions[0],
						Preemption: g.Preemptions[r.IntN(2)], Trial: r.IntN(g.Trials + 1)},
					Apps: r.IntN(50), Completed: r.IntN(50), RespSum: int64(r.IntN(1000)), Makespan: int64(r.IntN(3000)),
				}
			},
			vary: func(_ *rand.Rand, in GridInstance, same bool) GridInstance {
				if !same {
					in.Missed++
				}
				return in
			},
		})
	})
}

// checkIndexAgainstMap runs two seeded Append sequences of the case
// against a fresh journal each and compares it with the model after
// each, then reopens and reloads the file.
func checkIndexAgainstMap[K comparable, R, S any](t *testing.T, format Format, c indexCase[K, R, S]) {
	for seed := uint64(1); seed <= 2; seed++ {
		r := rand.New(rand.NewPCG(seed, 0x1dec5))
		dir := t.TempDir()
		path := filepath.Join(dir, "j")
		j, err := c.create(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(j.done.pages) != 0 {
			t.Fatalf("a new journal holds %d index pages; pages are allocated on first touch", len(j.done.pages))
		}
		header, err := json.Marshal(j.header)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := CreateRecordLog(filepath.Join(dir, "ref"), format, header)
		if err != nil {
			t.Fatal(err)
		}
		model := map[K]R{}
		var appended []R
		for range 1500 {
			rec := c.draw(r)
			if len(appended) > 0 && r.IntN(6) == 0 {
				same := r.IntN(2) == 0
				rec = c.vary(r, appended[r.IntN(len(appended))], same)
			}
			k := c.kind.key(rec)
			prev, dup := model[k]
			err := j.Append(rec)
			switch {
			case !dup:
				if err != nil {
					t.Fatalf("append %+v: %v", rec, err)
				}
				model[k] = rec
				appended = append(appended, rec)
				b, err := c.kind.encode(nil, format, rec)
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.Append(b); err != nil {
					t.Fatal(err)
				}
			case sameEncoding(t, c.kind, format, prev, rec) != (err == nil):
				t.Fatalf("append %+v over %+v: err %v", rec, prev, err)
			}
		}
		if err := ref.Close(); err != nil {
			t.Fatal(err)
		}
		compareIndex(t, "after appends", c.kind, j, model)
		for range 200 {
			k := c.kind.key(c.draw(r))
			if _, want := model[k]; !want {
				if got, ok := j.Done(k); ok {
					t.Fatalf("Done(%+v) = %+v for a key never appended", k, got)
				}
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		got, err1 := os.ReadFile(path)
		want, err2 := os.ReadFile(filepath.Join(dir, "ref"))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: journal file differs from the model's records", seed)
		}
		// A reader sees each record as the file holds it: the implicit
		// default model's empty name reads back as "markov".
		for k, rec := range model {
			b, err := c.kind.encode(nil, format, rec)
			if err == nil {
				model[k], err = c.kind.decode(format, b, map[string]string{})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		opened, err := openJournal(c.kind, path, nil)
		if err != nil {
			t.Fatal(err)
		}
		compareIndex(t, "after OpenJournal", c.kind, opened, model)
		opened.Close()
		if c.load != nil {
			loaded, err := c.load(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := sortedValues(c.kind, model); !reflect.DeepEqual(loaded, want) {
				t.Fatalf("seed %d: LoadJournal holds %d instances, the model %d", seed, len(loaded), len(want))
			}
		}
	}
}

// sameEncoding reports whether Append takes b, over a recorded a of the
// same key, for an identical duplicate.
func sameEncoding[K comparable, R, S any](t *testing.T, kind *journalKind[K, R, S], format Format, a, b R) bool {
	ea, err1 := kind.encode(nil, format, a)
	eb, err2 := kind.encode(nil, format, b)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	return bytes.Equal(ea, eb)
}

// sortedValues returns the model's records in canonical order.
func sortedValues[K comparable, R, S any](kind *journalKind[K, R, S], model map[K]R) []R {
	out := make([]R, 0, len(model))
	for _, r := range model {
		out = append(out, r)
	}
	kind.sort(out)
	return out
}

// compareIndex checks Done for every recorded key, DoneCount and
// Instances against the model.
func compareIndex[K comparable, R, S any](t *testing.T, when string, kind *journalKind[K, R, S], j *journal[K, R, S], model map[K]R) {
	t.Helper()
	for k, want := range model {
		if got, ok := j.Done(k); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Done(%+v) = %+v, %v; want %+v", when, k, got, ok, want)
		}
	}
	if j.DoneCount() != len(model) {
		t.Fatalf("%s: DoneCount %d, model %d", when, j.DoneCount(), len(model))
	}
	if got, want := j.Instances(), sortedValues(kind, model); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Instances differ from the model's records", when)
	}
}

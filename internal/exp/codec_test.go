package exp

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// codecSweep is a small campaign used across the codec tests: several
// heuristics (so coordinate groups span records) and enough cells that a
// torn tail lands mid-campaign.
func codecSweep() Sweep {
	s := tinySweep([]string{"IE", "Y-IE", "RANDOM"})
	s.Scenarios = 2
	s.Trials = 2
	return s
}

// journalRun journals the sweep to path and returns the run's result.
// With a positive stopAfter a failing sink interrupts the run after that
// many live instances instead, leaving a partial journal (and a nil
// result).
func journalRun(t *testing.T, path string, s Sweep, format Format, stopAfter int) *Result {
	t.Helper()
	j, err := CreateJournalFormat(path, s, Shard{}, format)
	if err != nil {
		t.Fatal(err)
	}
	interrupted := errors.New("interrupted")
	n := 0
	res, err := Run(context.Background(), s, RunOptions{Journal: j, Sink: func(InstanceResult) error {
		if n++; stopAfter > 0 && n >= stopAfter {
			return interrupted
		}
		return nil
	}})
	if (stopAfter > 0 && !errors.Is(err, interrupted)) || (stopAfter <= 0 && err != nil) {
		t.Fatalf("journaled run returned %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return res
}

// runJournaled runs the sweep with a journal in the given format and
// returns the complete journal path and the in-memory result.
func runJournaled(t *testing.T, dir string, s Sweep, format Format) (string, *Result) {
	t.Helper()
	path := filepath.Join(dir, "sweep."+format.String())
	return path, journalRun(t, path, s, format, 0)
}

// TestBinaryJournalResultParity: the same campaign journaled under both
// formats loads back to identical instances and identical table bytes.
func TestBinaryJournalResultParity(t *testing.T) {
	s := codecSweep()
	dir := t.TempDir()
	jsonlPath, ref := runJournaled(t, dir, s, FormatJSONL)
	binPath, _ := runJournaled(t, dir, s, FormatBinary)

	for path, want := range map[string]Format{binPath: FormatBinary, jsonlPath: FormatJSONL} {
		got := Format(-1)
		err := ScanRecords(path, func(f Format, _ []byte, _ int64) error { got = f; return nil },
			func([]byte, int64) error { return nil })
		if err != nil || got != want {
			t.Fatalf("ScanRecords(%s) format = %v, %v; want %v", path, got, err, want)
		}
	}

	fromJSONL, _, err := LoadJournal(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, _, err := LoadJournal(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromJSONL.Instances, fromBin.Instances) {
		t.Fatal("instances differ between formats")
	}
	if !reflect.DeepEqual(fromBin.Instances, ref.Instances) {
		t.Fatal("binary journal replay differs from the live run")
	}
	a, err := fromJSONL.Table(ReferenceHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fromBin.Table(ReferenceHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	if FormatTable(a) != FormatTable(b) {
		t.Fatal("table bytes differ between formats")
	}

	// The binary file should be substantially smaller.
	ji, _ := os.Stat(jsonlPath)
	bi, _ := os.Stat(binPath)
	if bi.Size() >= ji.Size() {
		t.Fatalf("binary journal (%d B) not smaller than JSONL (%d B)", bi.Size(), ji.Size())
	}
}

// TestConvertRoundTripByteIdentical: JSONL → binary → JSONL reproduces
// the original file byte for byte — entries re-marshal canonically and
// the header is carried verbatim.
func TestConvertRoundTripByteIdentical(t *testing.T) {
	s := codecSweep()
	dir := t.TempDir()
	jsonlPath, _ := runJournaled(t, dir, s, FormatJSONL)

	binPath := filepath.Join(dir, "converted.bin")
	if err := ConvertJournal(jsonlPath, binPath, FormatBinary); err != nil {
		t.Fatal(err)
	}
	backPath := filepath.Join(dir, "back.jsonl")
	if err := ConvertJournal(binPath, backPath, FormatJSONL); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	back, err := os.ReadFile(backPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, back) {
		t.Fatal("JSONL → binary → JSONL round trip is not byte-identical")
	}

	// binary → JSONL → binary is likewise stable.
	binAgain := filepath.Join(dir, "again.bin")
	if err := ConvertJournal(backPath, binAgain, FormatBinary); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(binPath)
	b2, _ := os.ReadFile(binAgain)
	if !bytes.Equal(b1, b2) {
		t.Fatal("binary journal not stable under a JSONL round trip")
	}

	// Refuses to clobber.
	if err := ConvertJournal(jsonlPath, binPath, FormatBinary); err == nil {
		t.Fatal("convert over an existing destination should fail")
	}
}

// interruptJournaled journals a prefix of the campaign (interrupting via
// a failing sink) and returns the journal path.
func interruptJournaled(t *testing.T, dir string, s Sweep, format Format) string {
	t.Helper()
	path := filepath.Join(dir, "partial."+format.String())
	journalRun(t, path, s, format, 7)
	return path
}

// TestCrossFormatResumeParity is the acceptance path: a campaign is
// interrupted under one format, converted to the other, resumed there —
// and the tables must be byte-identical to a straight run's, in both
// directions.
func TestCrossFormatResumeParity(t *testing.T) {
	s := codecSweep()
	ref, err := Run(context.Background(), s, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refRows, err := ref.Table(ReferenceHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	refTable := FormatTable(refRows)

	for _, dir := range []struct {
		name     string
		from, to Format
	}{
		{"jsonl-to-binary", FormatJSONL, FormatBinary},
		{"binary-to-jsonl", FormatBinary, FormatJSONL},
	} {
		t.Run(dir.name, func(t *testing.T) {
			tmp := t.TempDir()
			partial := interruptJournaled(t, tmp, s, dir.from)
			converted := filepath.Join(tmp, "converted."+dir.to.String())
			if err := ConvertJournal(partial, converted, dir.to); err != nil {
				t.Fatal(err)
			}
			res, err := Resume(context.Background(), converted, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Instances, ref.Instances) {
				t.Fatal("instances differ after cross-format resume")
			}
			rows, err := res.Table(ReferenceHeuristic)
			if err != nil {
				t.Fatal(err)
			}
			if got := FormatTable(rows); got != refTable {
				t.Fatalf("table differs after cross-format resume:\n--- straight\n%s--- resumed\n%s", refTable, got)
			}
		})
	}
}

// TestBinaryResumeTornTail: a binary journal torn mid-record (as a crash
// mid-write would leave it) reopens to the intact prefix and resumes to
// the bit-identical result.
func TestBinaryResumeTornTail(t *testing.T) {
	for _, k := range journalHarnesses() {
		t.Run(k.kind, func(t *testing.T) {
			ref := k.ref(t)
			path := filepath.Join(t.TempDir(), "partial.bin")
			k.run(t, path, FormatBinary, 2)

			// Tear: append a length prefix promising more bytes than follow.
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{40, 'p', 'a', 'r', 't'}); err != nil {
				t.Fatal(err)
			}
			f.Close()

			res, err := k.resume(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, ref) {
				t.Fatal("instances differ after torn-tail binary resume")
			}
		})
	}
}

// TestBinaryCorruptMiddleRejected mirrors the JSONL tamper policy: a
// CRC-damaged record with intact records after it silently ends the
// readable prefix at the damage (framing cannot resync), while a record
// that frames correctly but decodes to garbage mid-file is an error.
func TestBinaryCorruptMiddleRejected(t *testing.T) {
	for _, k := range journalHarnesses() {
		t.Run(k.kind, func(t *testing.T) {
			tmp := t.TempDir()
			path := filepath.Join(tmp, "full.bin")
			k.run(t, path, FormatBinary, 0)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			full, err := k.open(path)
			if err != nil {
				t.Fatal(err)
			}

			// ends[i] is the file offset just past record i (the header
			// is record 0).
			var ends []int64
			end := func(_ []byte, e int64) error { ends = append(ends, e); return nil }
			if err := ScanRecords(path, func(_ Format, p []byte, e int64) error { return end(p, e) }, end); err != nil {
				t.Fatal(err)
			}

			// Flip one payload byte of the first instance record: the CRC
			// catches it and the intact prefix ends there, before the
			// intact records after it — opening then truncates to that
			// prefix.
			bad := append([]byte(nil), data...)
			bad[ends[1]-6] ^= 0xff
			badPath := filepath.Join(tmp, "crc-damaged.bin")
			if err := os.WriteFile(badPath, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			n, err := k.open(badPath)
			if err != nil {
				t.Fatal(err)
			}
			if n >= full {
				t.Fatalf("damaged journal still reports %d of %d instances", n, full)
			}

			// A CRC-valid record whose payload fails entry decoding, with
			// records after it, is corruption, not a tear. Splice in a
			// well-framed garbage record right after the header.
			headerEnd := ends[0]
			garbage := []byte{0xde, 0xad}
			var frame []byte
			frame = binary.AppendUvarint(frame, uint64(len(garbage)))
			frame = append(frame, garbage...)
			frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(garbage))
			spliced := append(append(append([]byte(nil), data[:headerEnd]...), frame...), data[headerEnd:]...)
			splicedPath := filepath.Join(tmp, "spliced.bin")
			if err := os.WriteFile(splicedPath, spliced, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := k.open(splicedPath); err == nil {
				t.Fatal("mid-file garbage record should be rejected")
			}
		})
	}
}

// TestAggregateJournalParity: streaming aggregation over a journal (both
// formats) renders byte-identical tables, Figure 2, models and the
// robustness check — without materializing instances.
func TestAggregateJournalParity(t *testing.T) {
	s := codecSweep()
	dir := t.TempDir()
	jsonlPath, ref := runJournaled(t, dir, s, FormatJSONL)
	binPath, _ := runJournaled(t, dir, s, FormatBinary)
	refRows, err := ref.Table(ReferenceHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	refDom := ref.RefFailureDominance(ReferenceHeuristic)

	for _, path := range []string{jsonlPath, binPath} {
		agg, err := AggregateJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if agg.Instances != nil {
			t.Fatal("aggregation-only result should hold no instances")
		}
		rows, err := agg.Table(ReferenceHeuristic)
		if err != nil {
			t.Fatal(err)
		}
		if FormatTable(rows) != FormatTable(refRows) {
			t.Fatalf("%s: aggregated table differs from materialized table", path)
		}
		if got := agg.RefFailureDominance(ReferenceHeuristic); got != refDom {
			t.Fatalf("%s: dominance %d, want %d", path, got, refDom)
		}
		if !reflect.DeepEqual(agg.Models(), ref.Models()) {
			t.Fatalf("%s: models %v, want %v", path, agg.Models(), ref.Models())
		}
		refFig, err := ref.Figure2(ReferenceHeuristic)
		if err != nil {
			t.Fatal(err)
		}
		aggFig, err := agg.Figure2(ReferenceHeuristic)
		if err != nil {
			t.Fatal(err)
		}
		if FormatFigure2(aggFig, nil) != FormatFigure2(refFig, nil) {
			t.Fatalf("%s: Figure 2 differs under aggregation", path)
		}
		// Only the streamed reference renders; anything else errors.
		if _, err := agg.Table("RANDOM"); err == nil {
			t.Fatal("aggregation-only result rendered a non-streamed reference")
		}
	}
}

// TestDiscardInstancesStreamingTables: a DiscardInstances run holds no
// instances yet renders the same table bytes as a collecting run.
func TestDiscardInstancesStreamingTables(t *testing.T) {
	s := codecSweep()
	ref, err := Run(context.Background(), s, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refRows, err := ref.Table(ReferenceHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), s, RunOptions{DiscardInstances: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances != nil {
		t.Fatalf("DiscardInstances run still holds %d instances", len(res.Instances))
	}
	rows, err := res.Table(ReferenceHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	if FormatTable(rows) != FormatTable(refRows) {
		t.Fatal("streamed table differs from collected table")
	}
	if got, want := res.RefFailureDominance(ReferenceHeuristic), ref.RefFailureDominance(ReferenceHeuristic); got != want {
		t.Fatalf("dominance %d, want %d", got, want)
	}
}

// TestGridCrossFormatConvertResume: grid journals convert and resume
// across formats with byte-identical Table IV.
func TestGridCrossFormatConvertResume(t *testing.T) {
	g := gridTestSweep()
	ref, err := RunGrid(t.Context(), g, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	refTable := FormatTableIV(ref.TableIV())

	tmp := t.TempDir()
	binPath := filepath.Join(tmp, "grid.bin")
	j, err := CreateGridJournalFormat(binPath, &g, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunGrid(t.Context(), g, j, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Pure replay of the complete binary journal.
	res, err := ResumeGrid(t.Context(), binPath, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatTableIV(res.TableIV()); got != refTable {
		t.Fatal("Table IV differs after binary grid replay")
	}

	// Convert to JSONL and replay again.
	jsonlPath := filepath.Join(tmp, "grid.jsonl")
	if err := ConvertJournal(binPath, jsonlPath, FormatJSONL); err != nil {
		t.Fatal(err)
	}
	res2, err := ResumeGrid(t.Context(), jsonlPath, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatTableIV(res2.TableIV()); got != refTable {
		t.Fatal("Table IV differs after cross-format grid replay")
	}

	// Streaming grid aggregation agrees too.
	agg, err := AggregateGridJournal(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatTableIV(agg.Grid.TableIV()); got != refTable {
		t.Fatal("Table IV differs under streaming aggregation")
	}
}

// TestExportColumns: the columnar export's files are exactly rows × width
// bytes, the dictionaries decode back to the journal's strings, and both
// source formats export identical data files. The binary source is the
// JSONL journal's ConvertJournal twin, so both hold the same records in
// the same order: two independently run campaigns journal in
// multi-worker completion order, which the export preserves.
func TestExportColumns(t *testing.T) {
	s := codecSweep()
	tmp := t.TempDir()
	jsonlPath, ref := runJournaled(t, tmp, s, FormatJSONL)
	binPath := filepath.Join(tmp, "converted.bin")
	if err := ConvertJournal(jsonlPath, binPath, FormatBinary); err != nil {
		t.Fatal(err)
	}

	dirA := filepath.Join(tmp, "colsA")
	if err := ExportColumns(jsonlPath, dirA); err != nil {
		t.Fatal(err)
	}
	dirB := filepath.Join(tmp, "colsB")
	if err := ExportColumns(binPath, dirB); err != nil {
		t.Fatal(err)
	}

	manifest, err := os.ReadFile(filepath.Join(dirA, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"rows": ` + itoa(len(ref.Instances)), `"makespan.i64"`, `"dictionary"`} {
		if !strings.Contains(string(manifest), want) {
			t.Fatalf("manifest missing %s:\n%s", want, manifest)
		}
	}
	widths := map[string]int64{
		"ncom.i32": 4, "wmin.i32": 4, "scenario.i32": 4, "trial.i32": 4,
		"model.u32": 4, "heuristic.u32": 4, "makespan.i64": 8, "failed.u8": 1,
	}
	for file, width := range widths {
		a, err := os.ReadFile(filepath.Join(dirA, file))
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(a)) != width*int64(len(ref.Instances)) {
			t.Fatalf("%s: %d bytes, want %d", file, len(a), width*int64(len(ref.Instances)))
		}
		b, err := os.ReadFile(filepath.Join(dirB, file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between source formats", file)
		}
	}
	// Spot-check the makespan column against the journal.
	mk, _ := os.ReadFile(filepath.Join(dirA, "makespan.i64"))
	loaded, _, err := LoadJournal(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[int64]int{}
	for _, inst := range loaded.Instances {
		sums[inst.Makespan]++
	}
	for i := 0; i < len(mk); i += 8 {
		v := int64(binary.LittleEndian.Uint64(mk[i : i+8]))
		if sums[v] == 0 {
			t.Fatalf("makespan column value %d not in journal", v)
		}
		sums[v]--
	}

	// Refuses to clobber an existing export.
	if err := ExportColumns(jsonlPath, dirA); err == nil {
		t.Fatal("re-export over an existing manifest should fail")
	}
	// Grid journals have no instance columns.
	g := gridTestSweep()
	gridPath := filepath.Join(tmp, "grid.jsonl")
	gj, err := CreateGridJournal(gridPath, &g)
	if err != nil {
		t.Fatal(err)
	}
	gj.Close()
	if err := ExportColumns(gridPath, filepath.Join(tmp, "colsG")); err == nil {
		t.Fatal("grid export should fail")
	}
}

func itoa(n int) string {
	return string(appendInt(nil, n))
}

func appendInt(b []byte, n int) []byte {
	if n >= 10 {
		b = appendInt(b, n/10)
	}
	return append(b, byte('0'+n%10))
}

// TestAggregateJournalAllocsBounded: steady-state aggregation memory is
// O(cells), so decoding 8× the trials must not cost 8× the allocations.
func TestAggregateJournalAllocsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation scaling check")
	}
	build := func(trials int) string {
		s := tinySweep([]string{"IE", "RANDOM"})
		s.Scenarios = 1
		s.Trials = trials
		path := filepath.Join(t.TempDir(), "alloc.bin")
		j, err := CreateJournalFormat(path, s, Shard{}, FormatBinary)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range s.Coords() {
			for _, h := range []string{"IE", "RANDOM"} {
				inst := InstanceResult{Point: c.Point, Trial: c.Trial, Model: c.Model,
					Heuristic: h, Makespan: int64(1000 + c.Trial)}
				if err := j.Append(inst); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	small := build(50)
	large := build(400)
	measure := func(path string) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := AggregateJournal(path); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(r.AllocsPerOp())
	}
	smallAllocs := measure(small)
	largeAllocs := measure(large)
	// 8× the records; require well under 8× the allocations (per-record
	// state would scale linearly). The fixed per-call overhead dominates.
	if largeAllocs > 4*smallAllocs {
		t.Fatalf("allocations scale with records: %v for 50 trials, %v for 400", smallAllocs, largeAllocs)
	}
}

// FuzzJournalDecode: arbitrary bytes must never panic a reader, and the
// typed loaders must agree with the kind dispatch: when the dispatching
// scan accepts the input as one kind, that kind's loader accepts it too
// and holds no more instances than records scanned, and the other kind's
// loader rejects it.
func FuzzJournalDecode(f *testing.F) {
	s := tinySweep([]string{"IE", "RANDOM"})
	s.Scenarios = 1
	s.Trials = 1
	dir := f.TempDir()
	for _, format := range []Format{FormatJSONL, FormatBinary} {
		path := filepath.Join(dir, "seed."+format.String())
		j, err := CreateJournalFormat(path, s, Shard{}, format)
		if err != nil {
			f.Fatal(err)
		}
		for _, c := range s.Coords() {
			for _, h := range []string{"IE", "RANDOM"} {
				inst := InstanceResult{Point: c.Point, Trial: c.Trial, Model: c.Model,
					Heuristic: h, Makespan: 1234}
				if err := j.Append(inst); err != nil {
					f.Fatal(err)
				}
			}
		}
		if err := j.Close(); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-3]) // torn tail
	}
	for _, name := range []string{"grid.jsonl", "grid.bin"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-3])
	}
	f.Add([]byte("TSBL\x01"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var format Format
		var codec journalCodec
		scanned := 0
		scanErr := ScanRecords(path,
			func(f Format, raw []byte, _ int64) (err error) {
				format = f
				codec, err = codecOf(path, raw)
				return err
			},
			func(payload []byte, _ int64) error {
				if _, err := codec.transcode(nil, format, format, payload, map[string]string{}); err != nil {
					return err
				}
				scanned++
				return nil
			})
		sweep, _, sweepErr := LoadJournal(path)
		agg, gridErr := AggregateGridJournal(path)
		if scanErr != nil || codec == nil {
			return
		}
		switch codec {
		case sweepKind:
			if sweepErr != nil || gridErr == nil || len(sweep.Instances) > scanned {
				t.Fatalf("sweep journal of %d records: LoadJournal err %v, AggregateGridJournal err %v", scanned, sweepErr, gridErr)
			}
		case gridKind:
			if gridErr != nil || sweepErr == nil || len(agg.Grid.Instances) > scanned {
				t.Fatalf("grid journal of %d records: AggregateGridJournal err %v, LoadJournal err %v", scanned, gridErr, sweepErr)
			}
		}
	})
}

// nonCanonicalRecord spells a sweep record the way a hand edit might,
// one of several ways by variant; json.Unmarshal reads each back as inst.
func nonCanonicalRecord(inst InstanceResult, variant int) string {
	escape := func(s string) string {
		var b strings.Builder
		for _, c := range []byte(s) {
			fmt.Fprintf(&b, `\u%04X`, c)
		}
		return b.String()
	}
	p := inst.Point
	switch variant % 5 {
	case 0: // reordered keys
		return fmt.Sprintf(`{"failed":%t,"makespan":%d,"heuristic":%q,"trial":%d,"scenario":%d,"wmin":%d,"ncom":%d,"model":%q}`,
			inst.Failed, inst.Makespan, inst.Heuristic, inst.Trial, p.Scenario, p.Wmin, p.Ncom, inst.Model)
	case 1: // whitespace
		return fmt.Sprintf(`{ "model": %q, "ncom": %d, "wmin": %d, "scenario": %d, "trial": %d, "heuristic": %q, "makespan": %d, "failed": %t }`,
			inst.Model, p.Ncom, p.Wmin, p.Scenario, inst.Trial, inst.Heuristic, inst.Makespan, inst.Failed)
	case 2: // escaped names
		return fmt.Sprintf(`{"model":"%s","ncom":%d,"wmin":%d,"scenario":%d,"trial":%d,"heuristic":"%s","makespan":%d,"failed":%t}`,
			escape(inst.Model), p.Ncom, p.Wmin, p.Scenario, inst.Trial, escape(inst.Heuristic), inst.Makespan, inst.Failed)
	case 3: // upper-case keys, a trailing carriage return
		return fmt.Sprintf(`{"MODEL":%q,"NCOM":%d,"WMIN":%d,"SCENARIO":%d,"TRIAL":%d,"HEURISTIC":%q,"MAKESPAN":%d,"FAILED":%t}`+"\r",
			inst.Model, p.Ncom, p.Wmin, p.Scenario, inst.Trial, inst.Heuristic, inst.Makespan, inst.Failed)
	default: // canonical order with an explicit "failed":false
		return fmt.Sprintf(`{"model":%q,"ncom":%d,"wmin":%d,"scenario":%d,"trial":%d,"heuristic":%q,"makespan":%d,"failed":%t}`,
			inst.Model, p.Ncom, p.Wmin, p.Scenario, inst.Trial, inst.Heuristic, inst.Makespan, inst.Failed)
	}
}

// TestJSONLNonCanonicalRecords: a hand-edited JSONL journal — records
// with reordered or upper-case keys, whitespace, escaped names, an
// explicit "failed":false — reads exactly like the canonical journal it
// was edited from, through every reader: aggregation, load, open for
// resume and conversion.
func TestJSONLNonCanonicalRecords(t *testing.T) {
	s := tinySweep([]string{"IE", "RANDOM"})
	dir := t.TempDir()
	canonical := filepath.Join(dir, "canonical.jsonl")
	j, err := CreateJournal(canonical, s, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	var edited strings.Builder
	i := 0
	for _, c := range s.Coords() {
		for _, h := range s.Heuristics {
			inst := InstanceResult{Point: c.Point, Trial: c.Trial, Model: c.Model, Heuristic: h, Makespan: int64(1000 + 37*i)}
			if i%3 == 0 {
				inst.Makespan, inst.Failed = s.Cap, true
			}
			if err := j.Append(inst); err != nil {
				t.Fatal(err)
			}
			edited.WriteString(nonCanonicalRecord(inst, i) + "\n")
			i++
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(canonical)
	if err != nil {
		t.Fatal(err)
	}
	header := want[:bytes.IndexByte(want, '\n')+1]
	hand := filepath.Join(dir, "edited.jsonl")
	if err := os.WriteFile(hand, append(append([]byte(nil), header...), edited.String()...), 0o644); err != nil {
		t.Fatal(err)
	}
	handBytes, _ := os.ReadFile(hand)

	table := func(path string) string {
		res, err := AggregateJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.Table(ReferenceHeuristic)
		if err != nil {
			t.Fatal(err)
		}
		return FormatTable(rows)
	}
	if got, want := table(hand), table(canonical); got != want {
		t.Fatalf("AggregateJournal: edited journal renders\n%s\nwant\n%s", got, want)
	}

	load := func(path string) ([]InstanceResult, Shard) {
		res, shard, err := LoadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		return res.Instances, shard
	}
	gotInst, gotShard := load(hand)
	wantInst, wantShard := load(canonical)
	if !reflect.DeepEqual(gotInst, wantInst) || gotShard != wantShard {
		t.Fatalf("LoadJournal: edited journal holds %+v (shard %v), want %+v (shard %v)", gotInst, gotShard, wantInst, wantShard)
	}

	oj, err := OpenJournal(hand)
	if err != nil {
		t.Fatal(err)
	}
	if got := oj.Instances(); !reflect.DeepEqual(got, wantInst) {
		t.Fatalf("OpenJournal: edited journal holds %+v, want %+v", got, wantInst)
	}
	if err := oj.Close(); err != nil {
		t.Fatal(err)
	}
	if after, _ := os.ReadFile(hand); !bytes.Equal(after, handBytes) {
		t.Fatal("OpenJournal modified an intact hand-edited journal")
	}

	// Conversion re-encodes every record canonically.
	for _, to := range []Format{FormatJSONL, FormatBinary} {
		fromHand := filepath.Join(dir, "hand-converted."+to.String())
		fromCanonical := filepath.Join(dir, "canonical-converted."+to.String())
		if err := ConvertJournal(hand, fromHand, to); err != nil {
			t.Fatal(err)
		}
		if err := ConvertJournal(canonical, fromCanonical, to); err != nil {
			t.Fatal(err)
		}
		got, _ := os.ReadFile(fromHand)
		ref, _ := os.ReadFile(fromCanonical)
		if !bytes.Equal(got, ref) {
			t.Fatalf("ConvertJournal to %s: edited journal converts to\n%q\nwant\n%q", to, got, ref)
		}
		if to == FormatJSONL && !bytes.Equal(got, want) {
			t.Fatalf("ConvertJournal to jsonl does not restore the canonical journal:\n%q\nwant\n%q", got, want)
		}
	}
}

// FuzzSweepRecordJSON differentially checks the JSONL sweep record codec
// against encoding/json. For arbitrary payload bytes, a payload the
// canonical fast path accepts is one json.Unmarshal accepts too, with
// the same value. For arbitrary field values, the encoder's bytes are
// json.Marshal(SweepRecord)'s, and they decode back to what
// json.Unmarshal gives — through the fast path whenever the encoder took
// its own and every integer has at most 18 digits.
func FuzzSweepRecordJSON(f *testing.F) {
	type fields struct {
		model, heuristic            string
		ncom, wmin, scenario, trial int
		makespan                    int64
		failed                      bool
	}
	values := []fields{
		{"markov", "IE", 5, 1, 0, 0, 72, false},
		{"", "Y-IE", 10, 3, 7, 2, 50_000, true},
		{"a<b", "P&Q", 1, 1, 1, 1, 1, false},
		{"modèle", "IE", 0, 0, 0, 0, 0, false},
		{"\xff\xfe", "x\"y\\z", -5, -1, 0, 0, -1, true},
		{"tab\there", " ", 1, 2, 3, 4, 5, false},
		{"markov", "RANDOM", math.MaxInt, math.MinInt, 0, 0, math.MaxInt64, false},
		{"markov", "IE", 0, 0, 0, 0, math.MinInt64, true},
		{"markov", "IE", 1, 1, 1, 1, 999_999_999_999_999_999, false},
		{"markov", "IE", 1, 1, 1, 1, 1_000_000_000_000_000_000, false},
	}
	payloads := []string{
		`{"model":"markov","ncom":5,"wmin":1,"scenario":0,"trial":0,"heuristic":"IE","makespan":72}`,
		`{"model":"a<b","ncom":5,"wmin":1,"scenario":0,"trial":0,"heuristic":"IE","makespan":72}`,
		`{"model":"modèle","ncom":5,"wmin":1,"scenario":0,"trial":0,"heuristic":"IE","makespan":72}`,
		"{\"model\":\"\xff\",\"ncom\":5,\"wmin\":1,\"scenario\":0,\"trial\":0,\"heuristic\":\"IE\",\"makespan\":72}",
		`{"model":"markov","ncom":-0,"wmin":1,"scenario":0,"trial":0,"heuristic":"IE","makespan":-0}`,
		`{"model":"markov","ncom":05,"wmin":1,"scenario":0,"trial":0,"heuristic":"IE","makespan":72}`,
		`{"model":"markov","ncom":5,"wmin":1,"scenario":0,"trial":0,"heuristic":"IE","makespan":1234567890123456789}`,
		`{"model":"markov","ncom":5,"wmin":1,"scenario":0,"trial":0,"heuristic":"IE","makespan":123456789012345678}`,
		`{"model":"markov","ncom":5,"wmin":1,"scenario":0,"trial":0,"heuristic":"IE","makespan":-123456789012345678,"failed":true}`,
		`{"model":"markov","ncom":5,"wmin":1,"scenario":0,"trial":0,"heuristic":"IE","makespan":72,"failed":false}`,
		`{"ncom":5,"model":"markov","wmin":1,"scenario":0,"trial":0,"heuristic":"IE","makespan":72}`,
		`{"MODEL":"markov","ncom":5,"wmin":1,"scenario":0,"trial":0,"heuristic":"IE","makespan":72}`,
		`{ "model":"markov","ncom":5,"wmin":1,"scenario":0,"trial":0,"heuristic":"IE","makespan":72}`,
		`{"model":"markov","ncom":5,"wmin":1,"scenario":0,"trial":0,"heuristic":"IE","makespan":72}` + "\r",
		`{"model":"markov","ncom":5,"wmin":1,"scenario":0,"trial":0,"heuristic":"IE","makespan":72}}`,
		`{"model":"markov","ncom":5,"wmin":1,"scenario":0,"trial":0,"heuristic":"IE","makespan":7.5}`,
		`{"model":"markov","ncom":5`,
		``,
	}
	fixture, err := os.ReadFile(filepath.Join("testdata", "sweep.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(fixture), "\n"), "\n")
	payloads = append(payloads, lines[1:]...)
	for i, p := range payloads {
		v := values[i%len(values)]
		f.Add([]byte(p), v.model, v.heuristic, v.ncom, v.wmin, v.scenario, v.trial, v.makespan, v.failed)
	}

	f.Fuzz(func(t *testing.T, payload []byte, model, heuristic string, ncom, wmin, scenario, trial int, makespan int64, failed bool) {
		if got, ok := parseCanonicalEntry(payload, map[string]string{}); ok {
			var e SweepRecord
			if err := json.Unmarshal(payload, &e); err != nil {
				t.Fatalf("fast path accepted %q, json.Unmarshal rejects it: %v", payload, err)
			}
			if want := e.Instance(); got != want {
				t.Fatalf("fast path decoded %q as %+v, json.Unmarshal as %+v", payload, got, want)
			}
		}

		inst := InstanceResult{Point: Point{ncom, wmin, scenario}, Trial: trial, Model: model,
			Heuristic: heuristic, Makespan: makespan, Failed: failed}
		want, err := json.Marshal(SweepRecord{modelName(inst), ncom, wmin, scenario, trial, heuristic, makespan, failed})
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendJSONEntry([]byte("x"), inst)
		if err != nil {
			t.Fatal(err)
		}
		if string(got[:1]) != "x" || !bytes.Equal(got[1:], want) {
			t.Fatalf("encoded %+v as %q, json.Marshal gives %q", inst, got[1:], want)
		}
		var e SweepRecord
		if err := json.Unmarshal(want, &e); err != nil {
			t.Fatal(err)
		}
		back, err := decodeJSONEntry(want, map[string]string{})
		if err != nil || back != e.Instance() {
			t.Fatalf("%q decodes to %+v (err %v), json.Unmarshal gives %+v", want, back, err, e.Instance())
		}
		short := func(vs ...int64) bool { // at most 18 digits: the fast path's integers
			for _, v := range vs {
				if v <= -1e18 || v >= 1e18 {
					return false
				}
			}
			return true
		}
		if plainJSONString(modelName(inst)) && plainJSONString(heuristic) &&
			short(int64(ncom), int64(wmin), int64(scenario), int64(trial), makespan) {
			inst.Model = modelName(inst)
			if fast, ok := parseCanonicalEntry(want, map[string]string{}); !ok || fast != inst {
				t.Fatalf("fast path decodes its own %q as %+v (ok %v), want %+v", want, fast, ok, inst)
			}
		}
	})
}

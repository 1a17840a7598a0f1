package exp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
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

// runJournaled runs the sweep with a journal in the given format and
// returns the complete journal path and the in-memory result.
func runJournaled(t *testing.T, dir string, s Sweep, format Format) (string, *Result) {
	t.Helper()
	path := filepath.Join(dir, "sweep."+format.String())
	j, err := CreateJournalFormat(path, s, Shard{}, format)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWith(s, RunOptions{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path, res
}

// TestBinaryJournalResultParity: the same campaign journaled under both
// formats loads back to identical instances and identical table bytes.
func TestBinaryJournalResultParity(t *testing.T) {
	s := codecSweep()
	dir := t.TempDir()
	jsonlPath, ref := runJournaled(t, dir, s, FormatJSONL)
	binPath, _ := runJournaled(t, dir, s, FormatBinary)

	if f, err := SniffFormat(binPath); err != nil || f != FormatBinary {
		t.Fatalf("SniffFormat(bin) = %v, %v", f, err)
	}
	if f, err := SniffFormat(jsonlPath); err != nil || f != FormatJSONL {
		t.Fatalf("SniffFormat(jsonl) = %v, %v", f, err)
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
	j, err := CreateJournalFormat(path, s, Shard{}, format)
	if err != nil {
		t.Fatal(err)
	}
	interrupted := errors.New("interrupted")
	n := 0
	_, err = RunWith(s, RunOptions{Journal: j, Sink: func(InstanceResult) error {
		if n++; n >= 7 {
			return interrupted
		}
		return nil
	}})
	if !errors.Is(err, interrupted) {
		t.Fatalf("interrupted run returned %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCrossFormatResumeParity is the acceptance path: a campaign is
// interrupted under one format, converted to the other, resumed there —
// and the tables must be byte-identical to a straight run's, in both
// directions.
func TestCrossFormatResumeParity(t *testing.T) {
	s := codecSweep()
	ref, err := Run(s, nil)
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
			res, err := Resume(converted, nil)
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
	s := codecSweep()
	ref, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	path := interruptJournaled(t, tmp, s, FormatBinary)

	// Tear: append a length prefix promising more bytes than follow.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{40, 'p', 'a', 'r', 't'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	res, err := Resume(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Instances, ref.Instances) {
		t.Fatal("instances differ after torn-tail binary resume")
	}
}

// TestBinaryCorruptMiddleRejected mirrors the JSONL tamper policy: a
// CRC-damaged record with intact records after it silently ends the
// readable prefix at the damage (framing cannot resync), while a record
// that frames correctly but decodes to garbage mid-file is an error.
func TestBinaryCorruptMiddleRejected(t *testing.T) {
	s := codecSweep()
	tmp := t.TempDir()
	path, _ := runJournaled(t, tmp, s, FormatBinary)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte mid-file: the CRC catches it and the intact
	// prefix ends there — OpenJournal then truncates to that prefix.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0xff
	badPath := filepath.Join(tmp, "crc-damaged.bin")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(badPath)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.DoneCount() >= len(full.Instances) {
		t.Fatalf("damaged journal still reports %d of %d instances", j.DoneCount(), len(full.Instances))
	}
	j.Close()

	// A CRC-valid record whose payload fails entry decoding, with records
	// after it, is corruption, not a tear. Splice in a well-framed garbage
	// record right after the header.
	recs, _, err := parseBinaryLog(path, data)
	if err != nil {
		t.Fatal(err)
	}
	headerEnd := recs[0].end
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
	if _, err := OpenJournal(splicedPath); err == nil {
		t.Fatal("mid-file garbage record should be rejected")
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
	ref, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	refRows, err := ref.Table(ReferenceHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWith(s, RunOptions{DiscardInstances: true})
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
	ref, err := RunGridContext(t.Context(), g, GridRunOptions{})
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
	if _, err := RunGridContext(t.Context(), g, GridRunOptions{Journal: j}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Pure replay of the complete binary journal.
	res, err := ResumeGrid(t.Context(), binPath, GridRunOptions{})
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
	res2, err := ResumeGrid(t.Context(), jsonlPath, GridRunOptions{})
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
// whole-file and streaming readers must agree on the record count
// whenever both accept the input.
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
	f.Add([]byte("TSBL\x01"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		format, _, recs, _, wholeErr := readJournalRecords(path)
		intern := map[string]string{}
		wholeDecoded := 0
		if wholeErr == nil {
			for _, rec := range recs {
				if _, err := decodeJournalEntry(format, rec.payload, intern); err != nil {
					break
				}
				wholeDecoded++
			}
		}
		scanned := 0
		scanErr := scanRecords(path,
			func(Format, []byte) error { return nil },
			func(payload []byte) error {
				if _, err := decodeJournalEntry(format, payload, map[string]string{}); err != nil {
					return err
				}
				scanned++
				return nil
			})
		// Both readers accepting the input must agree on the decodable
		// record count (the scan drops a decode-failing tail record; the
		// whole-file count stops there too).
		if wholeErr == nil && scanErr == nil && scanned != wholeDecoded {
			t.Fatalf("whole-file reader decoded %d records, scanner %d", wholeDecoded, scanned)
		}
		// LoadJournal must not panic either (errors are fine).
		_, _, _ = LoadJournal(path)
	})
}

package exp

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"tightsched/internal/stats"
)

// Columnar export: one raw little-endian file per instance field, so
// external tooling (numpy.memmap, Arrow, DuckDB) can map a campaign's
// data without parsing it. Low-cardinality string fields (model,
// heuristic) are dictionary-encoded as uint32 indices into dictionaries
// listed in the manifest. The export streams a journal record by record —
// memory stays O(1) in the number of instances; only the dictionaries
// and the running summaries grow, and those are bounded by field
// cardinality.

// columnsManifestName is the manifest filename inside an export dir.
const columnsManifestName = "manifest.json"

// ColumnFile describes one exported column in the manifest.
type ColumnFile struct {
	// Name is the logical field name ("makespan").
	Name string `json:"name"`
	// File is the data file's name inside the export directory.
	File string `json:"file"`
	// Type is the element encoding: "u8", "i32", "i64" or "u32" —
	// little-endian, fixed width, no header or padding.
	Type string `json:"type"`
	// Dictionary, for u32 dictionary-encoded columns, maps index i to
	// Dictionary[i]; nil otherwise.
	Dictionary []string `json:"dictionary,omitempty"`
}

// ColumnsManifest is the manifest.json document of a columnar export.
type ColumnsManifest struct {
	// Rows is the number of elements in every column file.
	Rows int `json:"rows"`
	// Source records the journal the export was produced from.
	Source string `json:"source"`
	// Format is the source journal's encoding ("jsonl" or "binary").
	Format string `json:"format"`
	// Columns lists the exported files in schema order.
	Columns []ColumnFile `json:"columns"`
	// Makespan summarizes the makespan column (all rows, including
	// failed instances, which record the campaign cap): streaming
	// moments plus P² estimates — no second pass over the data.
	Makespan ColumnSummary `json:"makespan"`
}

// ColumnSummary is a streaming numeric summary: exact moments and
// extremes, P² estimates for the quantiles.
type ColumnSummary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Stdev  float64 `json:"stdev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
	Approx bool    `json:"quantiles_approximate"`
}

// columnWriter buffers one column file.
type columnWriter struct {
	f   *os.File
	buf *bufio.Writer
	col ColumnFile
}

func (w *columnWriter) flushClose() error {
	if err := w.buf.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// columnDict is an order-of-first-appearance string dictionary.
type columnDict struct {
	index map[string]uint32
	names []string
}

func newColumnDict() *columnDict {
	return &columnDict{index: map[string]uint32{}}
}

func (d *columnDict) id(s string) uint32 {
	if i, ok := d.index[s]; ok {
		return i
	}
	i := uint32(len(d.names))
	d.index[s] = i
	d.names = append(d.names, s)
	return i
}

// ExportColumns streams a sweep journal (either format) into dir as a
// columnar dataset: fixed-width little-endian files ncom.i32, wmin.i32,
// scenario.i32, trial.i32, model.u32, heuristic.u32, makespan.i64,
// failed.u8, plus manifest.json describing rows, dictionaries and a
// streaming makespan summary. dir is created; it must not already
// contain a manifest.
func ExportColumns(journalPath, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(dir, columnsManifestName)); err == nil {
		return fmt.Errorf("exp: export dir %s already holds a manifest", dir)
	}

	specs := []ColumnFile{
		{Name: "ncom", File: "ncom.i32", Type: "i32"},
		{Name: "wmin", File: "wmin.i32", Type: "i32"},
		{Name: "scenario", File: "scenario.i32", Type: "i32"},
		{Name: "trial", File: "trial.i32", Type: "i32"},
		{Name: "model", File: "model.u32", Type: "u32"},
		{Name: "heuristic", File: "heuristic.u32", Type: "u32"},
		{Name: "makespan", File: "makespan.i64", Type: "i64"},
		{Name: "failed", File: "failed.u8", Type: "u8"},
	}
	writers := make(map[string]*columnWriter, len(specs))
	cleanup := func() {
		for _, w := range writers {
			w.f.Close()
			os.Remove(w.f.Name())
		}
	}
	for _, spec := range specs {
		f, err := os.OpenFile(filepath.Join(dir, spec.File),
			os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			cleanup()
			return err
		}
		writers[spec.Name] = &columnWriter{f: f, buf: bufio.NewWriter(f), col: spec}
	}

	models := newColumnDict()
	heuristics := newColumnDict()
	var (
		rows     int
		format   Format
		welford  stats.Welford
		p50      = stats.NewP2(0.50)
		p95      = stats.NewP2(0.95)
		p99      = stats.NewP2(0.99)
		min, max float64
		scratch  [8]byte
		writeErr error
	)
	put32 := func(name string, v uint32) {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		if _, err := writers[name].buf.Write(scratch[:4]); err != nil && writeErr == nil {
			writeErr = err
		}
	}
	_, err := scanJournal(sweepKind, journalPath,
		func(f Format, _ journalHeader[SweepSpec]) error {
			format = f
			return nil
		},
		func(e InstanceResult) error {
			put32("ncom", uint32(int32(e.Point.Ncom)))
			put32("wmin", uint32(int32(e.Point.Wmin)))
			put32("scenario", uint32(int32(e.Point.Scenario)))
			put32("trial", uint32(int32(e.Trial)))
			put32("model", models.id(e.Model))
			put32("heuristic", heuristics.id(e.Heuristic))
			binary.LittleEndian.PutUint64(scratch[:8], uint64(e.Makespan))
			if _, err := writers["makespan"].buf.Write(scratch[:8]); err != nil && writeErr == nil {
				writeErr = err
			}
			b := byte(0)
			if e.Failed {
				b = 1
			}
			if err := writers["failed"].buf.WriteByte(b); err != nil && writeErr == nil {
				writeErr = err
			}
			mk := float64(e.Makespan)
			welford.Add(mk)
			p50.Add(mk)
			p95.Add(mk)
			p99.Add(mk)
			if rows == 0 || mk < min {
				min = mk
			}
			if rows == 0 || mk > max {
				max = mk
			}
			rows++
			return writeErr
		})
	if err == nil {
		err = writeErr
	}
	if err != nil {
		cleanup()
		return err
	}
	for _, spec := range specs {
		w := writers[spec.Name]
		if cerr := w.flushClose(); cerr != nil {
			cleanup()
			return cerr
		}
	}

	manifest := ColumnsManifest{
		Rows:   rows,
		Source: filepath.Base(journalPath),
		Format: format.String(),
	}
	for _, spec := range specs {
		switch spec.Name {
		case "model":
			spec.Dictionary = models.names
		case "heuristic":
			spec.Dictionary = heuristics.names
		}
		manifest.Columns = append(manifest.Columns, spec)
	}
	if rows > 0 { // NaN summaries of an empty export are not JSON-encodable
		manifest.Makespan = ColumnSummary{
			N:      welford.N(),
			Mean:   welford.Mean(),
			Stdev:  welford.Stdev(),
			Min:    min,
			Max:    max,
			P50:    p50.Quantile(),
			P95:    p95.Quantile(),
			P99:    p99.Quantile(),
			Approx: rows >= 5,
		}
	}
	doc, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	return os.WriteFile(filepath.Join(dir, columnsManifestName), doc, 0o644)
}

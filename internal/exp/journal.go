package exp

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"

	"tightsched/internal/avail"
)

// This file is the one campaign journal: an append-only record of a
// campaign's completed instances, generic over the coordinate key K, the
// record type R and the header's spec type S. Sweep journals (Journal)
// and online grid journals (GridJournal) are its two instantiations; a
// journalKind value carries everything that differs between them.

// journalKind is the codec of one journal kind: the header's kind
// marker, the record's coordinate key and canonical order, and its JSON
// and binary encodings (codec.go).
type journalKind[K comparable, R, S any] struct {
	// kind is the header's "kind" marker. Sweep journals predate the
	// marker and write none.
	kind          string
	key           func(R) K
	sort          func([]R)
	marshalJSON   func(R) ([]byte, error)
	unmarshalJSON func([]byte) (R, error)
	appendBinary  func([]byte, R) []byte
	decodeBinary  func([]byte, map[string]string) (R, error)
}

// journalHeader is every journal's first record: the same JSON document
// in both formats, so campaign identity is format-independent. Sweep
// headers carry a shard stamp and no kind marker ({"v","spec","shard"});
// grid headers carry the marker and no shard ({"v","kind","spec"}).
type journalHeader[S any] struct {
	V     int    `json:"v"`
	Kind  string `json:"kind,omitempty"`
	Spec  S      `json:"spec"`
	Shard Shard  `json:"shard,omitzero"`
}

// kindError reports a journal of one kind handed to a reader of another.
type kindError struct{ path, got, want string }

func (e *kindError) Error() string {
	return fmt.Sprintf("exp: journal %s is a %s journal, not a %s journal", e.path, e.got, e.want)
}

// parseHeader decodes a journal's raw header payload and checks that it
// is a v1 journal of this kind. It is the only reader of the kind marker.
func (k *journalKind[K, R, S]) parseHeader(path string, raw []byte) (journalHeader[S], error) {
	var h journalHeader[S]
	if err := json.Unmarshal(raw, &h); err != nil {
		return h, fmt.Errorf("exp: journal %s header: %w", path, err)
	}
	if h.V != 1 {
		return h, fmt.Errorf("exp: journal %s has unknown version %d", path, h.V)
	}
	if h.Kind != k.kind {
		return h, &kindError{path, cmp.Or(h.Kind, "sweep"), cmp.Or(k.kind, "sweep")}
	}
	return h, nil
}

// encode appends one record's encoding in the given format to dst (JSON
// records are freshly marshaled; dst only backs binary ones).
func (k *journalKind[K, R, S]) encode(dst []byte, format Format, r R) ([]byte, error) {
	if format == FormatBinary {
		return k.appendBinary(dst, r), nil
	}
	return k.marshalJSON(r)
}

// decode decodes one record payload in the given format. intern
// deduplicates strings across a replay's binary records.
func (k *journalKind[K, R, S]) decode(format Format, payload []byte, intern map[string]string) (R, error) {
	if format == FormatBinary {
		return k.decodeBinary(payload, intern)
	}
	return k.unmarshalJSON(payload)
}

// journalCodec is a journal kind with its types erased: what readers of
// any kind (ConvertJournal) dispatch on.
type journalCodec interface {
	checkHeader(path string, raw []byte) error
	// transcode decodes a payload in format from and appends its
	// encoding in format to to dst.
	transcode(dst []byte, from, to Format, payload []byte, intern map[string]string) ([]byte, error)
}

func (k *journalKind[K, R, S]) checkHeader(path string, raw []byte) error {
	_, err := k.parseHeader(path, raw)
	return err
}

func (k *journalKind[K, R, S]) transcode(dst []byte, from, to Format, payload []byte, intern map[string]string) ([]byte, error) {
	r, err := k.decode(from, payload, intern)
	if err != nil {
		return nil, err
	}
	return k.encode(dst, to, r)
}

// journalKinds lists every journal kind.
var journalKinds = []journalCodec{sweepKind, gridKind}

// codecOf returns the kind whose header raw is.
func codecOf(path string, raw []byte) (journalCodec, error) {
	var kerr *kindError
	for _, k := range journalKinds {
		err := k.checkHeader(path, raw)
		if err == nil {
			return k, nil
		}
		if !errors.As(err, &kerr) {
			return nil, err
		}
	}
	return nil, &kindError{path, kerr.got, "sweep or grid"}
}

// journal is an append-only record of a campaign's completed instances:
// a header record stamping the campaign spec, then one record per
// instance, in either the JSONL or the binary format (codec.go). Every
// Append is written and flushed immediately, so a crash loses at most
// the record being written — and readers tolerate exactly that torn
// tail. The journal file is the unit of resume and of cross-machine
// recombination; readers sniff the format, so both formats resume and
// merge freely.
type journal[K comparable, R, S any] struct {
	kind   *journalKind[K, R, S]
	mu     sync.Mutex
	w      recordAppender // nil when read-only
	format Format
	path   string
	header journalHeader[S]
	done   map[K]R
	buf    []byte // record encode buffer, reused across appends
}

// createJournal starts a new journal file, refusing to clobber an
// existing one.
func createJournal[K comparable, R, S any](kind *journalKind[K, R, S], path string, format Format, spec S, shard Shard) (*journal[K, R, S], error) {
	header := journalHeader[S]{V: 1, Kind: kind.kind, Spec: spec, Shard: shard}
	w, err := createRecordLog(path, format, header)
	if err != nil {
		return nil, fmt.Errorf("exp: create journal: %w", err)
	}
	return &journal[K, R, S]{kind: kind, w: w, format: format, path: path, header: header, done: map[K]R{}}, nil
}

// readJournal loads a journal file of either format without modifying
// it: a read-only journal, and the length of its intact prefix (a torn
// tail, as scanRecords defines it, lies past it). The instance a torn
// record would have recorded is simply re-run on resume, or covered by
// an overlapping journal on merge.
func readJournal[K comparable, R, S any](kind *journalKind[K, R, S], path string) (*journal[K, R, S], int64, error) {
	j := &journal[K, R, S]{kind: kind, path: path, done: map[K]R{}}
	validLen, err := scanJournal(kind, path,
		func(f Format, h journalHeader[S]) error {
			j.format, j.header = f, h
			return nil
		},
		func(r R) error {
			j.done[kind.key(r)] = r
			return nil
		})
	if err != nil {
		return nil, 0, err
	}
	return j, validLen, nil
}

// openJournal reads a journal and positions it for appending, truncating
// a torn tail. check, when set, vets the journal first, so a rejected
// file is never written to.
func openJournal[K comparable, R, S any](kind *journalKind[K, R, S], path string, check func(*journal[K, R, S]) error) (*journal[K, R, S], error) {
	j, validLen, err := readJournal(kind, path)
	if err != nil {
		return nil, err
	}
	if check != nil {
		if err := check(j); err != nil {
			return nil, err
		}
	}
	if j.w, err = openRecordAppender(path, j.format, validLen); err != nil {
		return nil, fmt.Errorf("exp: open journal for append: %w", err)
	}
	return j, nil
}

// scanJournal streams a journal of this kind through add without loading
// it into memory: onHeader sees the format and the checked header before
// the first record. It returns the length of the intact prefix — up to
// the last record add accepted.
func scanJournal[K comparable, R, S any](kind *journalKind[K, R, S], path string, onHeader func(Format, journalHeader[S]) error, add func(R) error) (int64, error) {
	var format Format
	var validLen int64
	seen := false
	intern := map[string]string{}
	err := scanRecords(path,
		func(f Format, raw []byte, end int64) error {
			h, err := kind.parseHeader(path, raw)
			if err != nil {
				return err
			}
			format, validLen, seen = f, end, true
			return onHeader(f, h)
		},
		func(payload []byte, end int64) error {
			r, err := kind.decode(format, payload, intern)
			if err == nil {
				err = add(r)
			}
			if err == nil {
				validLen = end
			}
			return err
		})
	if err == nil && !seen {
		err = fmt.Errorf("exp: journal %s: no header record", path)
	}
	return validLen, err
}

// Path returns the journal's file path.
func (j *journal[K, R, S]) Path() string { return j.path }

// Format returns the journal's on-disk format.
func (j *journal[K, R, S]) Format() Format { return j.format }

// Spec returns the campaign identity stamped in the header.
func (j *journal[K, R, S]) Spec() S { return j.header.Spec }

// Shard returns the shard stamp ({0,1} for a whole-campaign journal).
func (j *journal[K, R, S]) Shard() Shard { return j.header.Shard.normalize() }

// Done reports whether the key's instance is already journaled, and its
// recorded result.
func (j *journal[K, R, S]) Done(k K) (R, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	r, ok := j.done[k]
	return r, ok
}

// DoneCount returns the number of journaled instances.
func (j *journal[K, R, S]) DoneCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Instances returns the journaled results in canonical order.
func (j *journal[K, R, S]) Instances() []R {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]R, 0, len(j.done))
	for _, r := range j.done {
		out = append(out, r)
	}
	j.kind.sort(out)
	return out
}

// Append records one completed instance, immediately flushed to disk.
func (j *journal[K, R, S]) Append(r R) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var err error
	if j.buf, err = j.kind.encode(j.buf[:0], j.format, r); err != nil {
		return fmt.Errorf("exp: %w", err)
	}
	if err := j.w.AppendRecord(j.buf); err != nil {
		return fmt.Errorf("exp: %w", err)
	}
	j.done[j.kind.key(r)] = r
	return nil
}

// Close closes the journal file. Closing again is a no-op.
func (j *journal[K, R, S]) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.w == nil {
		return nil
	}
	err := j.w.Close()
	j.w = nil
	return err
}

// matches verifies that the journal belongs to this campaign and shard,
// so a run cannot silently mix incompatible campaigns in one file.
func (j *journal[K, R, S]) matches(spec S, shard Shard) error {
	if !reflect.DeepEqual(spec, j.header.Spec) {
		return fmt.Errorf("exp: journal %s records a different campaign (spec %+v, want %+v)",
			j.path, j.header.Spec, spec)
	}
	if got, want := j.Shard(), shard.normalize(); got != want {
		return fmt.Errorf("exp: journal %s records shard %s, run requested %s", j.path, got, want)
	}
	return nil
}

// ---- sweep journals --------------------------------------------------------

// Key uniquely identifies one (model, point, trial, heuristic) instance
// within a campaign — the coordinate a journal deduplicates on. Because
// every instance's seed derives deterministically from its coordinate
// (see Sweep.TrialSeed), re-running a key always reproduces the same
// InstanceResult, which is what makes resume exact.
type Key struct {
	Model     string
	Ncom      int
	Wmin      int
	Scenario  int
	Trial     int
	Heuristic string
}

// Key returns the instance's journal coordinate.
func (inst InstanceResult) Key() Key {
	return Key{modelName(inst), inst.Point.Ncom, inst.Point.Wmin,
		inst.Point.Scenario, inst.Trial, inst.Heuristic}
}

// SweepSpec is the JSON-serializable identity of a campaign: every field
// that determines the instance grid and its deterministic outcomes.
// Runtime knobs (Workers) are deliberately absent — they change speed,
// never results. Heuristics and Models are stored resolved, so a journal
// stays valid even if library defaults change later.
type SweepSpec struct {
	M            int      `json:"m"`
	Ncoms        []int    `json:"ncoms"`
	Wmins        []int    `json:"wmins"`
	Scenarios    int      `json:"scenarios"`
	Trials       int      `json:"trials"`
	P            int      `json:"p"`
	Iterations   int      `json:"iterations"`
	Cap          int64    `json:"cap"`
	Seed         uint64   `json:"seed"`
	Heuristics   []string `json:"heuristics"`
	Models       []string `json:"models"`
	InitialAllUp bool     `json:"initialAllUp,omitempty"`
}

// Spec returns the campaign's identity with heuristics and model names
// resolved.
func (s *Sweep) Spec() SweepSpec {
	models := make([]string, 0, len(s.models()))
	for _, m := range s.models() {
		models = append(models, m.Name())
	}
	return SweepSpec{
		M:            s.M,
		Ncoms:        append([]int(nil), s.Ncoms...),
		Wmins:        append([]int(nil), s.Wmins...),
		Scenarios:    s.Scenarios,
		Trials:       s.Trials,
		P:            s.P,
		Iterations:   s.Iterations,
		Cap:          s.Cap,
		Seed:         s.Seed,
		Heuristics:   append([]string(nil), s.heuristics()...),
		Models:       models,
		InitialAllUp: s.InitialAllUp,
	}
}

// Sweep reconstructs a runnable campaign from the spec. Models are
// resolved by name through the open registry (avail.Builtin), so any
// built-in or avail.Register'd model reconstructs headlessly; only a
// model constructed directly and never registered cannot — resume those
// with RunWith, passing the original Sweep alongside OpenJournal.
func (sp SweepSpec) Sweep() (Sweep, error) {
	s := sp.sweepDims()
	for _, name := range sp.Models {
		m, err := avail.Builtin(name)
		if err != nil {
			return Sweep{}, fmt.Errorf("exp: journal model %q is not registered; resume with RunWith and the original Sweep: %w", name, err)
		}
		s.Models = append(s.Models, m)
	}
	return s, nil
}

// sweepDims reconstructs everything but the model instances — enough for
// aggregation (which only reads recorded instances), not for re-running.
func (sp SweepSpec) sweepDims() Sweep {
	return Sweep{
		M:            sp.M,
		Ncoms:        append([]int(nil), sp.Ncoms...),
		Wmins:        append([]int(nil), sp.Wmins...),
		Scenarios:    sp.Scenarios,
		Trials:       sp.Trials,
		P:            sp.P,
		Iterations:   sp.Iterations,
		Cap:          sp.Cap,
		Seed:         sp.Seed,
		Heuristics:   append([]string(nil), sp.Heuristics...),
		InitialAllUp: sp.InitialAllUp,
	}
}

// journalEntry is one completed sweep instance's JSON record.
type journalEntry struct {
	Model     string `json:"model"`
	Ncom      int    `json:"ncom"`
	Wmin      int    `json:"wmin"`
	Scenario  int    `json:"scenario"`
	Trial     int    `json:"trial"`
	Heuristic string `json:"heuristic"`
	Makespan  int64  `json:"makespan"`
	Failed    bool   `json:"failed,omitempty"`
}

// sweepKind is the sweep journal's codec.
var sweepKind = &journalKind[Key, InstanceResult, SweepSpec]{
	key:  InstanceResult.Key,
	sort: sortInstances,
	marshalJSON: func(inst InstanceResult) ([]byte, error) {
		return json.Marshal(journalEntry{modelName(inst), inst.Point.Ncom, inst.Point.Wmin,
			inst.Point.Scenario, inst.Trial, inst.Heuristic, inst.Makespan, inst.Failed})
	},
	unmarshalJSON: func(b []byte) (InstanceResult, error) {
		var e journalEntry
		err := json.Unmarshal(b, &e)
		return InstanceResult{Point: Point{e.Ncom, e.Wmin, e.Scenario}, Trial: e.Trial,
			Model: e.Model, Heuristic: e.Heuristic, Makespan: e.Makespan, Failed: e.Failed}, err
	},
	appendBinary: appendBinaryEntry,
	decodeBinary: decodeBinaryEntry,
}

// Journal is the append-only journal of a sweep campaign, keyed by
// (model, point, trial, heuristic); its header also stamps the shard.
type Journal = journal[Key, InstanceResult, SweepSpec]

// CreateJournal starts a new JSONL journal for the sweep (shard is the
// slice stamp; the zero Shard means the whole campaign). It fails if the
// file already exists — open an existing journal with OpenJournal to
// resume.
func CreateJournal(path string, sweep Sweep, shard Shard) (*Journal, error) {
	return CreateJournalFormat(path, sweep, shard, FormatJSONL)
}

// CreateJournalFormat is CreateJournal with an explicit on-disk format.
func CreateJournalFormat(path string, sweep Sweep, shard Shard, format Format) (*Journal, error) {
	if err := sweep.Validate(); err != nil {
		return nil, err
	}
	if err := shard.Validate(); err != nil {
		return nil, err
	}
	return createJournal(sweepKind, path, format, sweep.Spec(), shard.normalize())
}

// OpenJournal opens an existing journal for resuming: it sniffs the
// format, loads the header and every recorded instance, truncates a torn
// final record (the signature of a mid-write crash), and positions the
// file for appending. Read-only consumers (aggregation, merging) should
// use LoadJournal instead, which never writes.
func OpenJournal(path string) (*Journal, error) {
	return openJournal(sweepKind, path, nil)
}

// Resume continues an interrupted journaled campaign from its file alone:
// the header reconstructs the sweep, recorded instances are trusted
// as-is, and only the missing (model, point, trial, heuristic) instances
// are re-run — each from its coordinate-derived seed, so the final Result
// is bit-identical to an uninterrupted run's. Models resolve by name
// through the open registry; only campaigns whose availability models
// were never registered must instead resume via RunWith with the
// original Sweep and OpenJournal.
func Resume(journalPath string, progress func(done, total int)) (*Result, error) {
	return ResumeWith(context.Background(), journalPath, RunOptions{Progress: progress})
}

// ResumeWith is Resume under a context with full consumption options:
// the journal and shard are read from the file (the Journal and Shard
// fields of opts are ignored), everything else — progress, sink,
// observer, instance discarding — applies as in RunWithContext. The
// journal is closed, flushed and resumable again when ResumeWith returns,
// whether the campaign completed or the context was cancelled.
func ResumeWith(ctx context.Context, journalPath string, opts RunOptions) (*Result, error) {
	j, err := OpenJournal(journalPath)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	sweep, err := j.Spec().Sweep()
	if err != nil {
		return nil, err
	}
	opts.Journal = j
	opts.Shard = j.Shard()
	return RunWithContext(ctx, sweep, opts)
}

// LoadJournal reads a journal into a Result without running anything or
// writing to the file (safe on read-only artifacts) — the input to
// exp.Merge when recombining shard journals. The Result's Sweep carries
// the journaled dimensions (models stay name-only inside the instances).
func LoadJournal(path string) (*Result, Shard, error) {
	j, _, err := readJournal(sweepKind, path)
	if err != nil {
		return nil, Shard{}, err
	}
	return &Result{Sweep: j.Spec().sweepDims(), Instances: j.Instances()}, j.Shard(), nil
}

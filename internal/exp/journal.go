package exp

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
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
// and binary encodings (codec.go). The encoders append to dst; the
// decoders may intern strings in a replay's shared map.
type journalKind[K comparable, R, S any] struct {
	// kind is the header's "kind" marker. Sweep journals predate the
	// marker and write none.
	kind          string
	key           func(R) K
	sort          func([]R)
	marshalJSON   func(dst []byte, r R) ([]byte, error)
	unmarshalJSON func(b []byte, intern map[string]string) (R, error)
	appendBinary  func([]byte, R) []byte
	decodeBinary  func([]byte, map[string]string) (R, error)
	// grid, when set, places the keys of a journal with this header's
	// spec and (normalized) shard on a dense grid: pos returns a key's
	// position in [0, size), or -1 for a key that is not a coordinate of
	// the journal. Its done index finds a key by position instead of by
	// hash (index.go); kinds without it keep every key in a map.
	grid func(spec S, shard Shard) (pos func(K) int, size int)
}

// newIndex returns an empty done index for a journal with header h.
func newIndex[V any, K comparable, R, S any](kind *journalKind[K, R, S], h journalHeader[S]) *doneIndex[K, V] {
	x := &doneIndex[K, V]{other: map[K]V{}}
	if kind.grid != nil {
		x.pos, x.size = kind.grid(h.Spec, h.Shard.normalize())
	}
	return x
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

// encode appends one record's encoding in the given format to dst.
func (k *journalKind[K, R, S]) encode(dst []byte, format Format, r R) ([]byte, error) {
	if format == FormatBinary {
		return k.appendBinary(dst, r), nil
	}
	return k.marshalJSON(dst, r)
}

// decode decodes one record payload in the given format. intern
// deduplicates strings across a replay's records.
func (k *journalKind[K, R, S]) decode(format Format, payload []byte, intern map[string]string) (R, error) {
	if format == FormatBinary {
		return k.decodeBinary(payload, intern)
	}
	return k.unmarshalJSON(payload, intern)
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
// instance: a record log (recordlog.go) in either format. Every
// Append is written and flushed immediately, so a crash loses at most
// the record being written — and readers tolerate exactly that torn
// tail. The journal file is the unit of resume and of cross-machine
// recombination; readers sniff the format, so both formats resume and
// merge freely.
type journal[K comparable, R, S any] struct {
	kind   *journalKind[K, R, S]
	mu     sync.Mutex
	w      *RecordLog // nil when read-only
	format Format
	path   string
	header journalHeader[S]
	done   *doneIndex[K, R]
	buf    []byte // record encode buffer, reused across appends
}

// createJournal starts a new journal file, refusing to clobber an
// existing one.
func createJournal[K comparable, R, S any](kind *journalKind[K, R, S], path string, format Format, spec S, shard Shard) (*journal[K, R, S], error) {
	header := journalHeader[S]{V: 1, Kind: kind.kind, Spec: spec, Shard: shard}
	raw, err := json.Marshal(header)
	if err != nil {
		return nil, fmt.Errorf("exp: create journal: %w", err)
	}
	w, err := CreateRecordLog(path, format, raw)
	if err != nil {
		return nil, fmt.Errorf("exp: create journal: %w", err)
	}
	return &journal[K, R, S]{kind: kind, w: w, format: format, path: path, header: header,
		done: newIndex[R](kind, header)}, nil
}

// readJournal loads a journal file of either format without modifying
// it: a read-only journal, and the length of its intact prefix (a torn
// tail, as ScanRecords defines it, lies past it). The instance a torn
// record would have recorded is simply re-run on resume, or covered by
// an overlapping journal on merge. A key's first record wins, as in
// Append; a later record of the key (only a hand-edited or
// concatenated file holds one) is ignored.
func readJournal[K comparable, R, S any](kind *journalKind[K, R, S], path string) (*journal[K, R, S], int64, error) {
	j := &journal[K, R, S]{kind: kind, path: path}
	validLen, err := scanJournal(kind, path,
		func(f Format, h journalHeader[S]) error {
			j.format, j.header, j.done = f, h, newIndex[R](kind, h)
			return nil
		},
		func(r R) error {
			k := kind.key(r)
			j.done.add(j.done.position(k), k, r)
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
	if j.w, err = OpenRecordLog(path, j.format, validLen); err != nil {
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
	intern := map[string]string{}
	err := ScanRecords(path,
		func(f Format, raw []byte, end int64) error {
			h, err := kind.parseHeader(path, raw)
			if err != nil {
				return err
			}
			format, validLen = f, end
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
	return validLen, err
}

// scanDistinct is scanJournal keeping only each key's first record, the
// rule Append enforces and readJournal follows, so that every reader of
// a file sees the same records. add also receives the record's position
// on the journal's grid (journalKind.grid), or -1 for a key off it, so
// that a reader indexing by position need not compute it again.
func scanDistinct[K comparable, R, S any](kind *journalKind[K, R, S], path string, onHeader func(Format, journalHeader[S]) error, add func(r R, pos int) error) error {
	var seen *doneIndex[K, struct{}]
	_, err := scanJournal(kind, path,
		func(f Format, h journalHeader[S]) error {
			seen = newIndex[struct{}](kind, h)
			return onHeader(f, h)
		},
		func(r R) error {
			k := kind.key(r)
			p := seen.position(k)
			if !seen.add(p, k, struct{}{}) {
				return nil
			}
			return add(r, p)
		})
	return err
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
	return j.done.get(j.done.position(k), k)
}

// DoneCount returns the number of journaled instances.
func (j *journal[K, R, S]) DoneCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done.len()
}

// Instances returns the journaled results in canonical order.
func (j *journal[K, R, S]) Instances() []R {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := j.done.appendAll(make([]R, 0, j.done.len()))
	j.kind.sort(out)
	return out
}

// Append records one completed instance, immediately flushed to disk.
// A journal holds one record per key: appending a key it already holds
// writes nothing, and is an error unless the record encodes identically.
func (j *journal[K, R, S]) Append(r R) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	k := j.kind.key(r)
	p := j.done.position(k)
	prev, dup := j.done.get(p, k)
	var err error
	if j.buf, err = j.kind.encode(j.buf[:0], j.format, r); err != nil {
		return fmt.Errorf("exp: %w", err)
	}
	if dup {
		old, err := j.kind.encode(nil, j.format, prev)
		if err != nil {
			return fmt.Errorf("exp: %w", err)
		}
		if !bytes.Equal(old, j.buf) {
			return fmt.Errorf("exp: journal %s already records %+v with a different result", j.path, k)
		}
		return nil
	}
	if err := j.w.Append(j.buf); err != nil {
		return fmt.Errorf("exp: %w", err)
	}
	j.done.put(p, k, r)
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
// with Run, passing the original Sweep alongside OpenJournal.
func (sp SweepSpec) Sweep() (Sweep, error) {
	s := sp.sweepDims()
	for _, name := range sp.Models {
		m, err := avail.Builtin(name)
		if err != nil {
			return Sweep{}, fmt.Errorf("exp: journal model %q is not registered; resume with Run and the original Sweep: %w", name, err)
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

// instance returns the sweep instance the record describes.
func (e journalEntry) instance() InstanceResult {
	return InstanceResult{Point: Point{e.Ncom, e.Wmin, e.Scenario}, Trial: e.Trial,
		Model: e.Model, Heuristic: e.Heuristic, Makespan: e.Makespan, Failed: e.Failed}
}

// sweepKind is the sweep journal's codec.
var sweepKind = &journalKind[Key, InstanceResult, SweepSpec]{
	key:           InstanceResult.Key,
	sort:          sortInstances,
	marshalJSON:   appendJSONEntry,
	unmarshalJSON: decodeJSONEntry,
	appendBinary:  appendBinaryEntry,
	decodeBinary:  decodeBinaryEntry,
	grid:          sweepGrid,
}

// sweepGrid places a sweep journal's keys at their canonical positions:
// a key's coordinate has index c in Sweep.Coords order, shard i/n owns
// it when c mod n = i (Shard.Covers) and holds it as its (c/n)th
// coordinate, and each coordinate fans out over the heuristics in spec
// order. Finding a position compares names against the spec's short
// model and heuristic lists; it hashes nothing.
func sweepGrid(sp SweepSpec, sh Shard) (func(Key) int, int) {
	coords := sp.coordCount()
	if sh.Validate() != nil || coords == 0 {
		return nil, 0
	}
	owned := sh.owned(coords)
	heuristics := len(sp.Heuristics)
	if heuristics == 0 || owned > maxIndexGrid/heuristics {
		return nil, 0
	}
	// A journal's next key mostly shares the previous key's scenario draw
	// and names the next heuristic, so pos tries those first. The memo
	// makes pos unsafe for concurrent use: a done index calls it under
	// its journal's lock or from a single scan.
	var last struct {
		model                         string
		ncom, wmin, scenario, scen, h int
	}
	last.scen = -1
	pos := func(k Key) int {
		h := last.h + 1
		if h == heuristics {
			h = 0
		}
		if sp.Heuristics[h] != k.Heuristic {
			h = slices.Index(sp.Heuristics, k.Heuristic)
		}
		last.h = h
		s := last.scen
		if s < 0 || k.Scenario != last.scenario || k.Wmin != last.wmin || k.Ncom != last.ncom || k.Model != last.model {
			s = sp.scenarioIndex(k.Model, k.Ncom, k.Wmin, k.Scenario)
			last.model, last.ncom, last.wmin, last.scenario, last.scen = k.Model, k.Ncom, k.Wmin, k.Scenario, s
		}
		if h < 0 || s < 0 || k.Trial < 0 || k.Trial >= sp.Trials {
			return -1
		}
		c := s*sp.Trials + k.Trial
		if sh.Count > 1 { // skip the division on a whole-campaign journal
			if !sh.Covers(c) {
				return -1
			}
			c /= sh.Count
		}
		return c*heuristics + h
	}
	return pos, owned * heuristics
}

// coordCount returns the number of coordinates (model, point, trial) of
// the campaign, or 0 when a dimension is empty or the grid exceeds
// maxIndexGrid coordinates.
func (sp *SweepSpec) coordCount() int {
	coords := 1
	for _, d := range []int{len(sp.Models), len(sp.Ncoms), len(sp.Wmins), sp.Scenarios, sp.Trials} {
		if d <= 0 || coords > maxIndexGrid/d {
			return 0
		}
		coords *= d
	}
	return coords
}

// scenarioIndex returns the index of a scenario draw among the
// campaign's draws in Sweep.Coords order, so that draw s holds
// coordinates s·Trials to s·Trials+Trials−1, or -1 when the campaign
// has no such draw.
func (sp *SweepSpec) scenarioIndex(model string, ncom, wmin, scenario int) int {
	m, n, w := slices.Index(sp.Models, model), slices.Index(sp.Ncoms, ncom), slices.Index(sp.Wmins, wmin)
	if m < 0 || n < 0 || w < 0 || scenario < 0 || scenario >= sp.Scenarios {
		return -1
	}
	return ((m*len(sp.Ncoms)+n)*len(sp.Wmins)+w)*sp.Scenarios + scenario
}

// scenarioAt returns the key of scenario draw s, the inverse of
// scenarioIndex.
func (sp *SweepSpec) scenarioAt(s int) scenarioKey {
	sc, s := s%sp.Scenarios, s/sp.Scenarios
	w, s := s%len(sp.Wmins), s/len(sp.Wmins)
	n, m := s%len(sp.Ncoms), s/len(sp.Ncoms)
	return scenarioKey{sp.Ncoms[n], sp.Wmins[w], sc, sp.Models[m]}
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
// were never registered must instead resume via Run with the original
// Sweep and OpenJournal. The journal and shard are read from the file
// (the Journal and Shard fields of opts are ignored); everything else —
// workers, progress, sink, observer, instance discarding — applies as in
// Run. The journal is closed, flushed and resumable again when Resume
// returns, whether the campaign completed or the context was cancelled.
func Resume(ctx context.Context, journalPath string, opts RunOptions) (*Result, error) {
	return resume(sweepKind, journalPath, func(j *Journal) (*Result, error) {
		sweep, err := j.Spec().Sweep()
		if err != nil {
			return nil, err
		}
		opts.Journal = j
		opts.Shard = j.Shard()
		return Run(ctx, sweep, opts)
	})
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

package exp

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// This file is the journal codec seam: the Format knob every journal
// creation path threads through (CLI flag, daemon spec, cluster config),
// the compact binary encodings of the two record types, and the one
// streaming record scanner every journal reader is built on (open, load,
// resume, merge, aggregation, conversion and columnar export).
//
// The two formats carry the same records under the same coordinate Keys;
// only the framing and per-record encoding differ. The header record is
// the identical JSON document in both, so campaign identity — and every
// spec-equality check built on it (resume, merge, cluster adoption) — is
// format-independent. Readers sniff the container magic, so a journal is
// always opened by content, never by flag.

// Format selects a journal's on-disk encoding.
type Format int

const (
	// FormatJSONL is the interoperable default: one JSON record per line.
	FormatJSONL Format = iota
	// FormatBinary is the compact length-prefixed binary codec
	// (binlog.go): a version byte up front, CRC per record.
	FormatBinary
)

// String renders the format the way specs and flags spell it.
func (f Format) String() string {
	switch f {
	case FormatJSONL:
		return "jsonl"
	case FormatBinary:
		return "binary"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat parses a journal format name. The empty string means the
// default (JSONL), so optional spec fields and flags parse directly.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "", "jsonl":
		return FormatJSONL, nil
	case "binary", "bin":
		return FormatBinary, nil
	default:
		return 0, fmt.Errorf("exp: unknown journal format %q (want jsonl or binary)", s)
	}
}

// recordAppender abstracts the two journal writers behind one append
// seam: a payload in, one flushed write out.
type recordAppender interface {
	AppendRecord(payload []byte) error
	Close() error
}

// AppendRecord writes a pre-encoded JSON payload as one journal line.
func (w *JSONLWriter) AppendRecord(payload []byte) error {
	if _, err := w.f.Write(append(append(make([]byte, 0, len(payload)+1), payload...), '\n')); err != nil {
		return fmt.Errorf("journal append: %w", err)
	}
	return nil
}

// sniffData reports the format of journal bytes: binary by magic,
// JSONL otherwise (its first byte is '{').
func sniffData(data []byte) Format {
	if IsBinaryLog(data) {
		return FormatBinary
	}
	return FormatJSONL
}

// SniffFormat reports a journal file's on-disk format from its leading
// bytes.
func SniffFormat(path string) (Format, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	head := make([]byte, len(binMagic))
	n, err := io.ReadFull(f, head)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return 0, err
	}
	return sniffData(head[:n]), nil
}

// openRecordAppender reopens a journal of the given format for appending
// at validLen (the intact prefix), truncating a torn tail.
func openRecordAppender(path string, format Format, validLen int64) (recordAppender, error) {
	if format == FormatBinary {
		return OpenBinaryLogAppend(path, validLen)
	}
	return OpenJSONLAppend(path, validLen)
}

// createRecordLog creates a fresh journal of the given format whose first
// record is the marshaled header document.
func createRecordLog(path string, format Format, header any) (recordAppender, error) {
	if format == FormatJSONL {
		return CreateJSONL(path, header)
	}
	hdr, err := json.Marshal(header)
	if err != nil {
		return nil, err
	}
	return CreateBinaryLog(path, hdr)
}

// ---- entry encodings -------------------------------------------------------
//
// Binary records are plain field-by-field encodings — varints for the
// integers, uvarint-length-prefixed bytes for the strings, a fixed 8-byte
// IEEE-754 image for the one float — with no per-record schema: the
// journal header pins the record type (sweep vs grid) and the container
// version byte pins the layout.

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decodeString reads one length-prefixed string, interning the result so
// a replay of a million instances holds one copy of each model and
// heuristic name (the map[string]string lookup on a []byte key does not
// allocate).
func decodeString(b []byte, intern map[string]string) (string, []byte, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) {
		return "", nil, fmt.Errorf("truncated string")
	}
	raw := b[w : w+int(n)]
	s, ok := intern[string(raw)]
	if !ok {
		s = string(raw)
		intern[s] = s
	}
	return s, b[w+int(n):], nil
}

func decodeVarint(b []byte) (int64, []byte, error) {
	v, w := binary.Varint(b)
	if w <= 0 {
		return 0, nil, fmt.Errorf("truncated varint")
	}
	return v, b[w:], nil
}

// appendBinaryEntry encodes one sweep journal instance.
func appendBinaryEntry(b []byte, inst InstanceResult) []byte {
	b = appendString(b, modelName(inst))
	b = appendString(b, inst.Heuristic)
	for _, v := range []int{inst.Point.Ncom, inst.Point.Wmin, inst.Point.Scenario, inst.Trial} {
		b = binary.AppendVarint(b, int64(v))
	}
	b = binary.AppendVarint(b, inst.Makespan)
	var flags byte
	if inst.Failed {
		flags = 1
	}
	return append(b, flags)
}

// decodeBinaryEntry decodes one sweep journal instance. intern
// deduplicates the model and heuristic strings across records.
func decodeBinaryEntry(b []byte, intern map[string]string) (InstanceResult, error) {
	var in InstanceResult
	var err error
	if in.Model, b, err = decodeString(b, intern); err != nil {
		return in, err
	}
	if in.Heuristic, b, err = decodeString(b, intern); err != nil {
		return in, err
	}
	var v int64
	for _, dst := range []*int{&in.Point.Ncom, &in.Point.Wmin, &in.Point.Scenario, &in.Trial} {
		if v, b, err = decodeVarint(b); err != nil {
			return in, err
		}
		*dst = int(v)
	}
	if in.Makespan, b, err = decodeVarint(b); err != nil {
		return in, err
	}
	if len(b) != 1 {
		return in, fmt.Errorf("bad entry tail (%d bytes)", len(b))
	}
	in.Failed = b[0]&1 != 0
	return in, nil
}

// appendBinaryGridEntry encodes one grid journal instance.
func appendBinaryGridEntry(b []byte, in GridInstance) []byte {
	b = appendString(b, in.Arrival)
	b = appendString(b, in.Admission)
	b = appendString(b, in.Preemption)
	for _, v := range []int{in.Trial, in.Apps, in.Completed, in.Missed, in.Preempted} {
		b = binary.AppendVarint(b, int64(v))
	}
	b = binary.AppendVarint(b, in.RespSum)
	b = binary.AppendVarint(b, in.Makespan)
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(in.SlowSum))
}

// decodeBinaryGridEntry decodes one grid journal instance.
func decodeBinaryGridEntry(b []byte, intern map[string]string) (GridInstance, error) {
	var in GridInstance
	var err error
	if in.Arrival, b, err = decodeString(b, intern); err != nil {
		return in, err
	}
	if in.Admission, b, err = decodeString(b, intern); err != nil {
		return in, err
	}
	if in.Preemption, b, err = decodeString(b, intern); err != nil {
		return in, err
	}
	var v int64
	for _, dst := range []*int{&in.Trial, &in.Apps, &in.Completed, &in.Missed, &in.Preempted} {
		if v, b, err = decodeVarint(b); err != nil {
			return in, err
		}
		*dst = int(v)
	}
	if in.RespSum, b, err = decodeVarint(b); err != nil {
		return in, err
	}
	if in.Makespan, b, err = decodeVarint(b); err != nil {
		return in, err
	}
	if len(b) != 8 {
		return in, fmt.Errorf("bad grid entry tail (%d bytes)", len(b))
	}
	in.SlowSum = math.Float64frombits(binary.LittleEndian.Uint64(b))
	return in, nil
}

// ---- streaming scan --------------------------------------------------------

// scanRecords is the one journal reader: it streams a journal's records
// through fn without loading the file into memory. It sniffs the format,
// hands it with the raw header payload to header, then each record
// payload (valid for the duration of the call only) to fn, each with the
// file offset just past the record. Torn tails are tolerated whatever
// their shape: a frame cut short or failing its CRC ends the scan
// silently, and so does a final record on which fn fails (a zero-filled
// or garbled block from filesystem crash recovery); the last offset
// handed out then ends the intact prefix. A record on which fn fails
// with records after it is an error — the journal is append-only, so
// damage there means the file was tampered with. A failing header
// aborts the scan.
func scanRecords(path string, header func(format Format, payload []byte, end int64) error, fn func(payload []byte, end int64) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	head, err := br.Peek(len(binMagic))
	if err != nil && err != io.EOF {
		return err
	}
	format := sniffData(head)
	next := jsonlFrames(br)
	if format == FormatBinary {
		if next, err = binaryFrames(path, br); err != nil {
			return err
		}
	}
	var pending error // fn's error on the previous record, fatal iff a record follows
	for i := 0; ; i++ {
		payload, end, err := next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if pending != nil {
			return pending
		}
		if i == 0 {
			if err := header(format, payload, end); err != nil {
				return err
			}
		} else if err := fn(payload, end); err != nil {
			pending = fmt.Errorf("exp: journal %s record %d: %w", path, i+1, err)
		}
	}
}

// jsonlFrames yields a JSONL journal's lines. A final line without its
// newline is a write cut short: it ends the scan (io.EOF) unread.
func jsonlFrames(br *bufio.Reader) func() ([]byte, int64, error) {
	var off int64
	return func() ([]byte, int64, error) {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return nil, 0, err
		}
		off += int64(len(line))
		return line[:len(line)-1], off, nil
	}
}

// binaryFrames checks a binary journal's container header and yields its
// CRC-checked frames. A frame that is short, oversized or fails its CRC
// is a torn write: it ends the scan (io.EOF). Payloads share one buffer,
// overwritten by the next frame.
func binaryFrames(path string, br *bufio.Reader) (func() ([]byte, int64, error), error) {
	hdr := make([]byte, binHeaderLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("%s: truncated binary journal header", path)
	}
	if hdr[4] != binVersion {
		return nil, fmt.Errorf("%s: unknown binary journal version %d", path, hdr[4])
	}
	off := int64(binHeaderLen)
	var buf []byte
	var lenBuf [binary.MaxVarintLen64]byte
	return func() ([]byte, int64, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil || n > maxBinRecord {
			return nil, 0, io.EOF // torn or garbled length prefix
		}
		need := int(n) + 4
		if cap(buf) < need {
			buf = make([]byte, need)
		}
		buf = buf[:need]
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, 0, io.EOF // frame runs past EOF: cut-short write
		}
		payload := buf[:n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[n:]) {
			return nil, 0, io.EOF // damaged payload (zero-fill, bit rot)
		}
		off += int64(binary.PutUvarint(lenBuf[:], n) + need)
		return payload, off, nil
	}, nil
}

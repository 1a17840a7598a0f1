package exp

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// This file is the journal codec seam: the Format knob every journal
// creation path threads through (CLI flag, daemon spec, cluster config)
// and the JSONL and binary encodings of the two record types. The
// framing of both formats, and the one streaming scanner every journal
// reader is built on, are the record log's (recordlog.go).
//
// The two formats carry the same records under the same coordinate Keys;
// only the framing and per-record encoding differ. The header record is
// the identical JSON document in both, so campaign identity — and every
// spec-equality check built on it (resume, merge, cluster adoption) — is
// format-independent. Readers tell the formats apart by the binary
// magic, so a journal is always opened by content, never by flag.

// Format selects a journal's on-disk encoding.
type Format int

const (
	// FormatJSONL is the interoperable default: one JSON record per line.
	FormatJSONL Format = iota
	// FormatBinary is the compact length-prefixed binary codec
	// (recordlog.go): a version byte up front, CRC per record.
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

// check reports an error for a value other than the two formats.
func (f Format) check() error {
	if f != FormatJSONL && f != FormatBinary {
		return fmt.Errorf("exp: unknown journal format %v", f)
	}
	return nil
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
// heuristic name.
func decodeString(b []byte, intern map[string]string) (string, []byte, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) {
		return "", nil, fmt.Errorf("truncated string")
	}
	return internBytes(b[w:w+int(n)], intern), b[w+int(n):], nil
}

// internBytes returns raw as a string, one copy per distinct value in
// intern (the map[string]string lookup on a []byte key does not
// allocate).
func internBytes(raw []byte, intern map[string]string) string {
	s, ok := intern[string(raw)]
	if !ok {
		s = string(raw)
		intern[s] = s
	}
	return s
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

// ---- JSONL sweep records ----------------------------------------------------
//
// A sweep journal holds one JSON record per instance, and campaigns write
// and replay hundreds of thousands of them, so the sweep kind encodes and
// decodes its canonical record form without encoding/json:
//
//	{"model":"…","ncom":N,"wmin":N,"scenario":N,"trial":N,"heuristic":"…","makespan":N[,"failed":true]}
//
// The encoder writes that form only when both names are plain: printable
// ASCII that json.Marshal copies verbatim. Then its bytes are exactly
// json.Marshal(journalEntry)'s; any other name goes through json.Marshal.
// The decoder accepts exactly that form — plain names, integers matching
// -?(0|[1-9][0-9]{0,17}), nothing else — and hands every other payload
// (reordered keys, whitespace, escapes, "failed":false, ...) to
// json.Unmarshal. Its fast path thus accepts a strict subset of what
// json.Unmarshal accepts and returns the same value for it.

// plainJSONByte reports whether json.Marshal copies byte c of a string
// verbatim: printable ASCII other than the quote, the backslash and the
// HTML-escaped <, > and &.
func plainJSONByte(c byte) bool {
	return c >= 0x20 && c <= 0x7e && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// plainJSONString reports whether json.Marshal copies s verbatim.
func plainJSONString(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainJSONByte(s[i]) {
			return false
		}
	}
	return true
}

// appendJSONEntry appends one sweep instance's JSON record to dst: the
// bytes json.Marshal(journalEntry) gives, written directly when both
// names are plain.
func appendJSONEntry(dst []byte, inst InstanceResult) ([]byte, error) {
	model := modelName(inst)
	if !plainJSONString(model) || !plainJSONString(inst.Heuristic) {
		b, err := json.Marshal(journalEntry{model, inst.Point.Ncom, inst.Point.Wmin,
			inst.Point.Scenario, inst.Trial, inst.Heuristic, inst.Makespan, inst.Failed})
		return append(dst, b...), err
	}
	dst = append(dst, `{"model":"`...)
	dst = append(dst, model...)
	dst = append(dst, `","ncom":`...)
	dst = strconv.AppendInt(dst, int64(inst.Point.Ncom), 10)
	dst = append(dst, `,"wmin":`...)
	dst = strconv.AppendInt(dst, int64(inst.Point.Wmin), 10)
	dst = append(dst, `,"scenario":`...)
	dst = strconv.AppendInt(dst, int64(inst.Point.Scenario), 10)
	dst = append(dst, `,"trial":`...)
	dst = strconv.AppendInt(dst, int64(inst.Trial), 10)
	dst = append(dst, `,"heuristic":"`...)
	dst = append(dst, inst.Heuristic...)
	dst = append(dst, `","makespan":`...)
	dst = strconv.AppendInt(dst, inst.Makespan, 10)
	if inst.Failed {
		dst = append(dst, `,"failed":true`...)
	}
	return append(dst, '}'), nil
}

// decodeJSONEntry decodes one sweep instance's JSON record. intern
// deduplicates the names of canonical records across a replay.
func decodeJSONEntry(b []byte, intern map[string]string) (InstanceResult, error) {
	if in, ok := parseCanonicalEntry(b, intern); ok {
		return in, nil
	}
	var e journalEntry
	err := json.Unmarshal(b, &e)
	return e.instance(), err
}

// parseCanonicalEntry decodes b if it is exactly a canonical sweep record
// (see appendJSONEntry); ok is false for anything else.
func parseCanonicalEntry(b []byte, intern map[string]string) (in InstanceResult, ok bool) {
	p := canonicalParser{b: b}
	in.Model = p.str(`{"model":"`, intern)
	in.Point.Ncom = p.num(`,"ncom":`)
	in.Point.Wmin = p.num(`,"wmin":`)
	in.Point.Scenario = p.num(`,"scenario":`)
	in.Trial = p.num(`,"trial":`)
	in.Heuristic = p.str(`,"heuristic":"`, intern)
	in.Makespan = p.num64(`,"makespan":`)
	if p.hasPrefix(`,"failed":true`) {
		in.Failed = true
		p.lit(`,"failed":true`)
	}
	p.lit("}")
	return in, !p.bad && len(p.b) == 0
}

// canonicalParser consumes a canonical sweep record field by field. The
// first mismatch sets bad, after which every step is a no-op.
type canonicalParser struct {
	b   []byte
	bad bool
}

func (p *canonicalParser) hasPrefix(s string) bool {
	return len(p.b) >= len(s) && string(p.b[:len(s)]) == s
}

// lit consumes the literal s.
func (p *canonicalParser) lit(s string) {
	if p.bad || !p.hasPrefix(s) {
		p.bad = true
		return
	}
	p.b = p.b[len(s):]
}

// str consumes prefix (which ends with the opening quote), a plain
// string and its closing quote, and returns the string interned.
func (p *canonicalParser) str(prefix string, intern map[string]string) string {
	p.lit(prefix)
	if p.bad {
		return ""
	}
	i := 0
	for i < len(p.b) && plainJSONByte(p.b[i]) {
		i++
	}
	if i == len(p.b) || p.b[i] != '"' {
		p.bad = true
		return ""
	}
	s := internBytes(p.b[:i], intern)
	p.b = p.b[i+1:]
	return s
}

// num64 consumes prefix and an integer matching -?(0|[1-9][0-9]{0,17}):
// at most 18 digits, so it cannot overflow.
func (p *canonicalParser) num64(prefix string) int64 {
	p.lit(prefix)
	if p.bad {
		return 0
	}
	b := p.b
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	n := 0
	for n < len(b) && n <= 18 && '0' <= b[n] && b[n] <= '9' {
		n++
	}
	if n == 0 || n > 18 || (b[0] == '0' && n > 1) {
		p.bad = true
		return 0
	}
	var v int64
	for _, c := range b[:n] {
		v = 10*v + int64(c-'0')
	}
	p.b = b[n:]
	if neg {
		v = -v
	}
	return v
}

// num is num64 for an int field; a value int cannot hold is not
// canonical (json.Unmarshal rejects it).
func (p *canonicalParser) num(prefix string) int {
	v := p.num64(prefix)
	if int64(int(v)) != v {
		p.bad = true
	}
	return int(v)
}

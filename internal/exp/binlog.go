package exp

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// This file is the binary sibling of the JSONL substrate (jsonl.go): an
// append-only record log with one write (and flush) per record, tolerant
// of exactly the damage a mid-write crash can cause. The frame layout is
//
//	file   := magic version record*
//	magic  := "TSBL" (4 bytes)
//	version:= 0x01   (1 byte)
//	record := uvarint(len(payload)) payload crc32
//	crc32  := 4-byte little-endian IEEE CRC of payload
//
// The first record is the journal header — the same JSON document a JSONL
// journal carries on its first line, so campaign identity (and the
// matches/merge checks built on it) is byte-equal across formats. Records
// after the header are compact binary encodings (codec.go).
//
// Torn-tail policy: length-prefixed framing cannot resynchronize past a
// damaged record, so the intact prefix ends at the first record whose
// frame is incomplete or whose CRC fails; the reader (binaryFrames in
// codec.go) stops there and appenders truncate the rest away. The CRC is what distinguishes "a
// crash tore the tail" from "this record is fine" — a half-written or
// zero-filled frame virtually never checksums correctly.

// Magic and version of the binary journal container.
var binMagic = []byte{'T', 'S', 'B', 'L'}

const (
	binVersion   = 0x01
	binHeaderLen = 5 // magic + version byte

	// maxBinRecord bounds a single record's payload so a corrupt length
	// prefix cannot ask the reader to allocate gigabytes. Journal records
	// are tens of bytes; the JSON header with an inline arrival trace can
	// be large, so the cap is generous.
	maxBinRecord = 64 << 20
)

// IsBinaryLog reports whether the byte slice starts with the binary
// journal magic (any version).
func IsBinaryLog(data []byte) bool {
	return len(data) >= len(binMagic) && string(data[:len(binMagic)]) == string(binMagic)
}

// BinaryLogWriter appends CRC-framed records to a binary journal, one
// write syscall per record (the durability contract JSONLWriter set).
type BinaryLogWriter struct {
	f   *os.File
	buf []byte // frame assembly buffer, reused across appends
}

// CreateBinaryLog starts a new binary journal with the given header
// payload (the same JSON document a JSONL journal would carry). It
// refuses to clobber an existing file.
func CreateBinaryLog(path string, header []byte) (*BinaryLogWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	w := &BinaryLogWriter{f: f}
	_, err = f.Write(append(append([]byte(nil), binMagic...), binVersion))
	if err == nil {
		err = w.AppendRecord(header)
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return w, nil
}

// OpenBinaryLogAppend opens an existing binary journal for appending,
// first truncating it to validLen (the intact prefix length) to drop a
// crash-torn tail.
func OpenBinaryLogAppend(path string, validLen int64) (*BinaryLogWriter, error) {
	f, err := openAppendAt(path, validLen)
	if err != nil {
		return nil, err
	}
	return &BinaryLogWriter{f: f}, nil
}

// AppendRecord writes one framed record in a single syscall.
func (w *BinaryLogWriter) AppendRecord(payload []byte) error {
	w.buf = w.buf[:0]
	w.buf = binary.AppendUvarint(w.buf, uint64(len(payload)))
	w.buf = append(w.buf, payload...)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(payload))
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("journal append: %w", err)
	}
	return nil
}

// Close closes the underlying file.
func (w *BinaryLogWriter) Close() error { return w.f.Close() }

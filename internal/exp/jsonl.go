package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// This file is the crash-tolerant append-only JSONL substrate shared by
// the campaign journal (journal.go) and sibling commands with their own
// record types (cmd/offline's trial journals): one header line, then one
// record per line, every append flushed. Readers tolerate exactly the
// damage a mid-write crash can cause — a torn final line — and report
// where the intact prefix ends so an appender can truncate it away.

// ReadJSONL reads an append-only JSONL file without touching it: the raw
// header line, the raw record lines, and the byte length of the intact
// prefix (everything up to and including the last complete line). A
// missing trailing newline marks a crash-torn tail, which is excluded;
// corruption elsewhere is the caller's to detect when parsing records.
func ReadJSONL(path string) (header []byte, records [][]byte, validLen int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, err
	}
	if len(data) > 0 && data[len(data)-1] != '\n' {
		cut := bytes.LastIndexByte(data, '\n') + 1
		data = data[:cut]
	}
	validLen = int64(len(data))
	lines := bytes.Split(data, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		return nil, nil, 0, fmt.Errorf("%s: no header line", path)
	}
	return lines[0], lines[1:], validLen, nil
}

// JSONLWriter appends newline-terminated JSON records to a journal file,
// one write syscall per record, so a crash loses at most the line being
// written.
type JSONLWriter struct {
	f   *os.File
	buf []byte // AppendRecord's line buffer, reused across appends
}

// CreateJSONL starts a new journal file with the given header record. It
// refuses to clobber an existing file (append-only history is the whole
// point); reopen existing files with OpenJSONLAppend.
func CreateJSONL(path string, header any) (*JSONLWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	w := &JSONLWriter{f: f}
	if err := w.Append(header); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return w, nil
}

// OpenJSONLAppend opens an existing journal for appending, first
// truncating it to validLen (as reported by ReadJSONL) to drop a
// crash-torn tail.
func OpenJSONLAppend(path string, validLen int64) (*JSONLWriter, error) {
	f, err := openAppendAt(path, validLen)
	if err != nil {
		return nil, err
	}
	return &JSONLWriter{f: f}, nil
}

// openAppendAt opens an existing log for appending after truncating it
// to validLen, the intact prefix its reader reported.
func openAppendAt(path string, validLen int64) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("truncate torn tail of %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Append writes v as one newline-terminated JSON record.
func (w *JSONLWriter) Append(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := w.f.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("journal append: %w", err)
	}
	return nil
}

// Close closes the underlying file.
func (w *JSONLWriter) Close() error { return w.f.Close() }

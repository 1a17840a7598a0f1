package exp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// This file is the one append-only record log under every durable file
// of the repository: campaign journals (journal.go), the cluster
// coordinator's lease logs and cmd/offline's trial journals. A log is a
// header record, then one record per Append, in one of two framings:
//
//	JSONL:   header '\n' (payload '\n')*
//	binary:  magic version frame*
//	magic  := "TSBL" (4 bytes)
//	version:= 0x01   (1 byte)
//	frame  := uvarint(len(payload)) payload crc32
//	crc32  := 4-byte little-endian IEEE CRC of payload
//
// Every header is a JSON document, so a log is read by content: the
// magic marks a binary log, anything else is JSONL. Every Append is one
// write before it returns, so a crash loses at most the record being
// written. ScanRecords, the only reader, holds the only torn-tail rule;
// an appender reopens a log with OpenRecordLog at the end of the last
// record its scan accepted, truncating whatever lies past it.

// Magic and version of the binary framing.
var binMagic = []byte{'T', 'S', 'B', 'L'}

const (
	binVersion   = 0x01
	binHeaderLen = 5 // magic + version byte
)

// RecordLog appends records to a log file, one flushed write per record.
// Its owner serializes appends. The first failed write is sticky: it may
// have left part of a frame behind, so every later Append refuses rather
// than write after it, and the partial frame stays the tail that
// OpenRecordLog drops on reopen.
type RecordLog struct {
	f      *os.File
	w      io.Writer // f; a test swaps in a writer that fails
	format Format
	buf    []byte // frame assembly buffer, reused across appends
	err    error  // the first failed write
}

// CreateRecordLog creates a log in the given format whose first record
// is header. It refuses to overwrite an existing file (append-only
// history is the whole point); reopen one with OpenRecordLog.
func CreateRecordLog(path string, format Format, header []byte) (*RecordLog, error) {
	if err := format.check(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	var head []byte
	if format == FormatBinary {
		head = append(append(head, binMagic...), binVersion)
	}
	if _, err := f.Write(appendFrame(head, format, header)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("record log header: %w", err)
	}
	return &RecordLog{f: f, w: f, format: format}, nil
}

// OpenRecordLog reopens a log in the given format for appending, first
// truncating it to validLen — the end of the last record a ScanRecords
// caller accepted — to drop a torn tail.
func OpenRecordLog(path string, format Format, validLen int64) (*RecordLog, error) {
	if err := format.check(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("truncate torn tail of %s: %w", path, err)
	}
	return &RecordLog{f: f, w: f, format: format}, nil
}

// Append frames payload for the log's format and writes it in one write.
// After a failed write it writes nothing and returns an error naming the
// file.
func (l *RecordLog) Append(payload []byte) error {
	if l.err != nil {
		return fmt.Errorf("record log %s: refusing to append after a failed write: %w", l.f.Name(), l.err)
	}
	l.buf = appendFrame(l.buf[:0], l.format, payload)
	if _, err := l.w.Write(l.buf); err != nil {
		l.err = err
		return fmt.Errorf("record log append: %w", err)
	}
	return nil
}

// Close closes the log file.
func (l *RecordLog) Close() error { return l.f.Close() }

// appendFrame appends payload framed for format to dst.
func appendFrame(dst []byte, format Format, payload []byte) []byte {
	if format == FormatJSONL {
		return append(append(dst, payload...), '\n')
	}
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// ScanRecords streams a log's records through fn without loading the
// file into memory. It reads the format from the file's leading bytes,
// hands it with the raw header payload to header, then each record
// payload (valid for the duration of the call only) to fn, each with the
// file offset just past the record. Torn tails are tolerated whatever
// their shape: a frame cut short or failing its CRC ends the scan
// silently, and so does a final record on which fn fails (a zero-filled
// or garbled block from filesystem crash recovery); the last offset
// handed out then ends the intact prefix. A record on which fn fails
// with records after it is an error — the log is append-only, so damage
// there means the file was tampered with. A failing header aborts the
// scan, and a file without a header record is an error.
func ScanRecords(path string, header func(format Format, payload []byte, end int64) error, fn func(payload []byte, end int64) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// Size the buffer to the file: bufio's default 4 KiB for a lease log
	// or trial journal, 1 MiB for a campaign's journal. (Seeking finds
	// the size without the allocation f.Stat makes.)
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		return err
	}
	r := frameReader{br: bufio.NewReaderSize(f, int(min(max(size, 4<<10), 1<<20))), size: size}
	head, err := r.br.Peek(binHeaderLen)
	if err != nil && err != io.EOF {
		return err
	}
	if bytes.HasPrefix(head, binMagic) {
		if len(head) < binHeaderLen {
			return fmt.Errorf("%s: truncated binary journal header", path)
		}
		if head[4] != binVersion {
			return fmt.Errorf("%s: unknown binary journal version %d", path, head[4])
		}
		r.format, r.off = FormatBinary, binHeaderLen
		r.br.Discard(binHeaderLen)
	}
	var pending error // fn's error on the previous record, fatal iff a record follows
	for i := 0; ; i++ {
		payload, end, err := r.next()
		if err == io.EOF {
			if i == 0 {
				return fmt.Errorf("exp: %s: no header record", path)
			}
			return nil
		}
		if err != nil {
			return err
		}
		if pending != nil {
			return pending
		}
		if i == 0 {
			if err := header(r.format, payload, end); err != nil {
				return err
			}
		} else if err := fn(payload, end); err != nil {
			pending = fmt.Errorf("exp: %s record %d: %w", path, i+1, err)
		}
	}
}

// frameReader yields a log's record payloads, each with the file offset
// just past it; io.EOF ends the scan at the end of the file or at a torn
// frame. A payload is overwritten by the next one.
type frameReader struct {
	br     *bufio.Reader
	format Format
	size   int64  // the file's size at open
	off    int64  // the offset just past the last frame read
	buf    []byte // a JSONL line longer than br's buffer, or a binary frame
}

func (r *frameReader) next() ([]byte, int64, error) {
	if r.format == FormatBinary {
		return r.frame()
	}
	return r.line()
}

// line yields the next JSONL line. A final line without its newline is a
// write cut short: it ends the scan (io.EOF) unread. Lines are read in
// place from the reader's buffer; one longer than the buffer (a header
// with a large inline spec) is accumulated in buf.
func (r *frameReader) line() ([]byte, int64, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		r.buf = append(r.buf[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.br.ReadSlice('\n')
			r.buf = append(r.buf, line...)
		}
		line = r.buf
	}
	if err != nil {
		return nil, 0, err
	}
	r.off += int64(len(line))
	return line[:len(line)-1], r.off, nil
}

// frame yields the next binary frame's CRC-checked payload.
// Length-prefixed framing cannot resynchronize past a damaged frame, so
// a frame that is short, runs past the file's size or fails its CRC (a
// half-written or zero-filled frame virtually never checksums) is a torn
// write: it ends the scan (io.EOF).
func (r *frameReader) frame() ([]byte, int64, error) {
	prefix, _ := r.br.Peek(binary.MaxVarintLen64)
	n, w := binary.Uvarint(prefix)
	if w <= 0 || n > uint64(max(r.size-r.off, 0)) {
		return nil, 0, io.EOF // torn or garbled length prefix
	}
	r.br.Discard(w)
	need := int(n) + 4
	if cap(r.buf) < need {
		r.buf = make([]byte, need)
	}
	r.buf = r.buf[:need]
	if _, err := io.ReadFull(r.br, r.buf); err != nil {
		return nil, 0, io.EOF // frame runs past EOF: cut-short write
	}
	payload := r.buf[:n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(r.buf[n:]) {
		return nil, 0, io.EOF // damaged payload (zero-fill, bit rot)
	}
	r.off += int64(w + need)
	return payload, r.off, nil
}

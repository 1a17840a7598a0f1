package exp

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestScanRecordsBinaryFrameEnds: the end offset reported for a binary
// frame, where OpenRecordLog truncates, is where its bytes end, even when
// its length prefix is a valid but non-minimal varint; a frame whose
// length runs past the file is a torn tail.
func TestScanRecordsBinaryFrameEnds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := CreateRecordLog(path, FormatBinary, []byte(`{"v":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"ev":"grant"}`)
	frame := append([]byte{byte(len(payload)) | 0x80, 0x00}, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	intact := append(data, frame...)
	for _, tail := range [][]byte{nil, {0xff, 0xff, 0xff, 0x7f}} {
		if err := os.WriteFile(path, append(intact, tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		var records int
		var end int64
		err := ScanRecords(path, func(f Format, _ []byte, e int64) error {
			if f != FormatBinary {
				t.Fatalf("format %v, want binary", f)
			}
			end = e
			return nil
		}, func(p []byte, e int64) error {
			if string(p) != string(payload) {
				t.Fatalf("payload %q, want %q", p, payload)
			}
			records, end = records+1, e
			return nil
		})
		if err != nil || records != 1 || end != int64(len(intact)) {
			t.Fatalf("tail %x: %d records ending at %d, %v; want 1 ending at %d", tail, records, end, err, len(intact))
		}
	}
}

// shortWriter writes the first k bytes of a write to w and then fails,
// as a write cut short by ENOSPC or EIO does.
type shortWriter struct {
	w io.Writer
	k int
}

var errShortWrite = errors.New("injected short write")

func (s shortWriter) Write(p []byte) (int, error) {
	n, err := s.w.Write(p[:min(s.k, len(p))])
	if err == nil {
		err = errShortWrite
	}
	return n, err
}

// scanLog returns a log's record payloads and the end of its intact
// prefix.
func scanLog(t *testing.T, path string) ([]string, int64) {
	t.Helper()
	var recs []string
	var end int64
	err := ScanRecords(path, func(_ Format, _ []byte, e int64) error {
		end = e
		return nil
	}, func(p []byte, e int64) error {
		recs, end = append(recs, string(p)), e
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, end
}

// TestRecordLogFailedWriteIsSticky: a write that fails after k bytes of
// a frame, for every k the frame allows, leaves the log refusing every
// later Append with an error naming the file, so nothing lands after the
// partial frame. Reopened, the log holds exactly the records before the
// failure, and appends after them cleanly.
func TestRecordLogFailedWriteIsSticky(t *testing.T) {
	a, b, c, d := []byte(`{"a":1}`), []byte(`{"b":222}`), []byte(`{"c":3}`), []byte(`{"d":4}`)
	for _, format := range []Format{FormatJSONL, FormatBinary} {
		frame := appendFrame(nil, format, b)
		for k := 0; k < len(frame); k++ {
			path := filepath.Join(t.TempDir(), "log")
			l, err := CreateRecordLog(path, format, []byte(`{"v":1}`))
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(a); err != nil {
				t.Fatal(err)
			}
			l.w = shortWriter{l.f, k}
			if err := l.Append(b); !errors.Is(err, errShortWrite) {
				t.Fatalf("%v k=%d: failed write returned %v", format, k, err)
			}
			l.w = l.f
			if err := l.Append(c); err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("%v k=%d: append after a failed write returned %v, want a refusal naming %s", format, k, err, path)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			recs, end := scanLog(t, path)
			if want := []string{string(a)}; !slices.Equal(recs, want) {
				t.Fatalf("%v k=%d: log holds %q, want %q", format, k, recs, want)
			}
			if l, err = OpenRecordLog(path, format, end); err != nil {
				t.Fatal(err)
			}
			for _, p := range [][]byte{c, d} {
				if err := l.Append(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if recs, _ := scanLog(t, path); !slices.Equal(recs, []string{string(a), string(c), string(d)}) {
				t.Fatalf("%v k=%d: reopened log holds %q, want [a c d]", format, k, recs)
			}
		}
	}
}

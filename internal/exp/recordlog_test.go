package exp

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
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

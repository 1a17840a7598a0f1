package exp

import (
	"encoding/json"
	"os"
)

// ConvertJournal rewrites a journal (sweep or grid — the header decides)
// into the requested format at dst, streaming record by record. The
// header document is carried over verbatim, so the converted journal
// stamps the byte-identical campaign identity; entries are decoded and
// re-encoded, which for JSONL → binary → JSONL reproduces the original
// file byte for byte (records are canonical json.Marshal output in both
// directions). A torn tail in src is dropped, exactly as resume would
// drop it. dst must not exist.
func ConvertJournal(src, dst string, to Format) error {
	var srcFormat Format
	var codec journalCodec
	var w *RecordLog
	var buf []byte
	intern := map[string]string{}
	// ScanRecords swallows an fn error on the final record (that is the
	// torn-tail contract, and a tail that fails to decode should indeed
	// be dropped) — but a destination write failure must surface even
	// there, so track it separately.
	var writeErr error
	err := ScanRecords(src,
		func(format Format, headerRaw []byte, _ int64) error {
			srcFormat = format
			var err error
			if codec, err = codecOf(src, headerRaw); err != nil {
				return err
			}
			header, err := json.Marshal(json.RawMessage(headerRaw))
			if err != nil {
				return err
			}
			w, err = CreateRecordLog(dst, to, header)
			return err
		},
		func(payload []byte, _ int64) error {
			var err error
			if buf, err = codec.transcode(buf[:0], srcFormat, to, payload, intern); err != nil {
				return err
			}
			writeErr = w.Append(buf)
			return writeErr
		})
	if err == nil {
		err = writeErr
	}
	if w != nil {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil && w != nil {
		os.Remove(dst)
	}
	return err
}

package grid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// ParseTrace parses a JSONL arrival trace: one {"t", "app", "wmin",
// "deadline"} object per line, blank lines and #-comments skipped, and
// nothing after a line's object. The returned entries are validated the
// way ArrivalSpec.Validate would (non-decreasing t, positive wmin), so a
// parsed trace drops straight into an ArrivalSpec.
func ParseTrace(data []byte) ([]Arrival, error) {
	var entries []Arrival
	for i, line := range bytes.Split(data, []byte("\n")) {
		raw := bytes.TrimSpace(line)
		if len(raw) == 0 || raw[0] == '#' {
			continue
		}
		var e Arrival
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("grid: trace line %d: %w", i+1, err)
		}
		if dec.InputOffset() != int64(len(raw)) {
			return nil, fmt.Errorf("grid: trace line %d: trailing content", i+1)
		}
		entries = append(entries, e)
	}
	spec := ArrivalSpec{Kind: KindTrace, Trace: entries}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return entries, nil
}

// LoadTrace reads and parses a JSONL arrival trace file.
func LoadTrace(path string) ([]Arrival, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseTrace(data)
}

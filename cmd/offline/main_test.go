package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var testHeader = trialHeader{V: 1, Mode: "greedy", P: 4, N: 6, M: 2, W: 2, PUp: 0.5, Seed: 7, Trials: 5}

// writeTrials journals the given trials in a fresh journal and returns
// its path and bytes.
func writeTrials(t *testing.T, trials ...trialRecord) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	tj, err := openTrialJournal(path, false, testHeader)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range trials {
		if err := tj.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := tj.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestTrialJournalResumeOverZeroFilledTail: a final line that crash
// recovery zero-filled is a torn tail. Resuming keeps the intact trials
// and appends after them, where the damaged line was.
func TestTrialJournalResumeOverZeroFilledTail(t *testing.T) {
	recs := []trialRecord{{Trial: 0, A: true, B: true}, {Trial: 1, A: true}}
	path, intact := writeTrials(t, recs...)
	if err := os.WriteFile(path, append(bytes.Clone(intact), "\x00\x00\x00\x00\x00\x00\x00\x00\x00\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	tj, err := openTrialJournal(path, true, testHeader)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[int]trialRecord{0: recs[0], 1: recs[1]}; !reflect.DeepEqual(tj.done, want) {
		t.Fatalf("resumed trials %v, want %v", tj.done, want)
	}
	if err := tj.append(trialRecord{Trial: 2, B: true}); err != nil {
		t.Fatal(err)
	}
	if err := tj.close(); err != nil {
		t.Fatal(err)
	}
	_, whole := writeTrials(t, append(recs, trialRecord{Trial: 2, B: true})...)
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, whole) {
		t.Fatalf("resumed journal %q (%v), want %q", got, err, whole)
	}
}

// TestTrialJournalResumeKeepsFirstRecord: a journal that records a trial
// twice with different outcomes resumes with the first one, as campaign
// journals keep a key's first record, and appends after both lines.
func TestTrialJournalResumeKeepsFirstRecord(t *testing.T) {
	first, second := trialRecord{Trial: 0, A: true}, trialRecord{Trial: 0, B: true}
	path, data := writeTrials(t, first, second)
	tj, err := openTrialJournal(path, true, testHeader)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[int]trialRecord{0: first}; !reflect.DeepEqual(tj.done, want) {
		t.Fatalf("resumed trials %v, want %v", tj.done, want)
	}
	next := trialRecord{Trial: 1, A: true}
	if err := tj.append(next); err != nil {
		t.Fatal(err)
	}
	if err := tj.close(); err != nil {
		t.Fatal(err)
	}
	_, whole := writeTrials(t, first, second, next)
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, whole) {
		t.Fatalf("resumed journal %q (%v), want %q (was %q)", got, err, whole, data)
	}
}

// TestTrialJournalRefusals: a journal damaged before its last line, one
// of another batch, and an existing journal without -resume are refused
// and left as they are.
func TestTrialJournalRefusals(t *testing.T) {
	recs := []trialRecord{{Trial: 0, A: true}, {Trial: 1, B: true}}
	other := testHeader
	other.Seed++
	for _, c := range []struct {
		name   string
		damage func([]byte) []byte
		resume bool
		hdr    trialHeader
		want   string
	}{
		{"garbled middle line", func(data []byte) []byte {
			cut := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
			return append(append(bytes.Clone(data[:cut]), "{garbled\n"...), data[cut:]...)
		}, true, testHeader, "invalid character"},
		{"header mismatch", nil, true, other, "different batch"},
		{"no resume", nil, false, testHeader, "pass -resume"},
	} {
		t.Run(c.name, func(t *testing.T) {
			path, data := writeTrials(t, recs...)
			if c.damage != nil {
				data = c.damage(data)
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := openTrialJournal(path, c.resume, c.hdr); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("open: %v, want an error containing %q", err, c.want)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("refused journal changed to %q (%v)", got, err)
			}
		})
	}
}

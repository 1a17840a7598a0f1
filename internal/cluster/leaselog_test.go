package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// leaseLog returns the bytes of a live campaign's lease log holding
// grant, split-requeue and grant events.
func leaseLog(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	clock := newFakeClock()
	co, j := testCoordinator(tb, dir, tinySweep([]string{"IE"}), func(c *Config) {
		c.Now = clock.Now
		c.Reshard = true
		c.Units = 2
		c.Logf = func(string, ...any) {}
	})
	defer j.Close()
	if _, err := co.Claim("doomed"); err != nil {
		tb.Fatal(err)
	}
	clock.Advance(11 * time.Second)
	if n, err := co.GC(); err != nil || n != 1 {
		tb.Fatalf("GC: expired %d, %v", n, err)
	}
	for _, w := range []string{"w1", "w2"} {
		if _, err := co.Claim(w); err != nil {
			tb.Fatal(err)
		}
	}
	if err := co.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "c.leases"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// readStateBytes writes data to a fresh file and reads it as a lease log.
func readStateBytes(t *testing.T, data []byte) (State, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "c.leases")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := ReadState(path)
	// Submitted reparses into a fresh location per read; compare instants.
	st.Header.Submitted = st.Header.Submitted.UTC()
	return st, err
}

// TestReadStateTornTail: a final line a crash tore (no newline) or
// zero-filled is dropped, and the log reads as its intact prefix; a
// garbled line with records after it is an error.
func TestReadStateTornTail(t *testing.T) {
	intact := leaseLog(t)
	want, err := readStateBytes(t, intact)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Events) != 4 || want.ValidLen != int64(len(intact)) {
		t.Fatalf("intact log: %d events, valid length %d of %d", len(want.Events), want.ValidLen, len(intact))
	}
	lastLine := bytes.LastIndexByte(intact[:len(intact)-1], '\n') + 1
	for _, c := range []struct {
		name string
		data []byte
		ok   bool
	}{
		{"line without its newline", append(bytes.Clone(intact), `{"ev":"done","unit":"1/2"`...), true},
		{"zero-filled final line", append(bytes.Clone(intact), "\x00\x00\x00\x00\x00\x00\x00\x00\n"...), true},
		{"zero-filled final block", append(bytes.Clone(intact), make([]byte, 64)...), true},
		{"garbled middle line", append(append(bytes.Clone(intact[:lastLine]), "{garbled\n"...), intact[lastLine:]...), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := readStateBytes(t, c.data)
			if !c.ok {
				if err == nil {
					t.Fatalf("read %d events, want an error", len(got.Events))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("got %+v\nwant %+v", got, want)
			}
		})
	}
}

// FuzzReadState reads arbitrary bytes as a lease log. ReadState never
// panics; on success the intact prefix lies within the file, and the
// file truncated to it reads back the same header, events, terminal
// state and intact length.
func FuzzReadState(f *testing.F) {
	data := leaseLog(f)
	f.Add(data)
	f.Add(data[:len(data)-3])
	f.Add(append(bytes.Clone(data), "\x00\x00\x00\x00\n"...))
	f.Add(append(bytes.Clone(data), make([]byte, 16)...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := readStateBytes(t, data)
		if err != nil {
			return
		}
		if st.ValidLen > int64(len(data)) {
			t.Fatalf("intact length %d past the file's %d bytes", st.ValidLen, len(data))
		}
		again, err := readStateBytes(t, data[:st.ValidLen])
		if err != nil {
			t.Fatalf("the intact prefix of a log that reads does not: %v", err)
		}
		if !reflect.DeepEqual(again, st) {
			t.Fatalf("intact prefix reads differently:\n%+v\nwant %+v", again, st)
		}
	})
}

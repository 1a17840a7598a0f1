package cluster

import (
	"encoding/json"
	"fmt"
	"time"

	"tightsched/internal/exp"
)

// The lease state log is the coordinator's durability: a JSONL record
// log (exp.RecordLog, the campaign journal's substrate) holding one
// header line — the campaign's full cluster identity — and one line per
// lease-lifecycle transition. Heartbeats are deliberately
// NOT logged: deadlines are volatile state, recomputed on restart, so
// the log grows with decisions (grants, requeues, completions), not
// with time. Replaying the log through the coordinator's one transition
// function (apply) reconstructs the exact lease table a killed
// coordinator held, claim-queue order included, modulo deadlines — which
// is all a correct restart needs, because expired leases requeue through
// the normal GC path and duplicate uploads dedupe by coordinate key.

// StateHeader is the lease log's first line: everything needed to
// re-register and resume the campaign after a daemon restart, without
// consulting any other file.
type StateHeader struct {
	V         int           `json:"v"`
	Campaign  string        `json:"campaign"`
	Name      string        `json:"name,omitempty"`
	Submitted time.Time     `json:"submitted"`
	Spec      exp.SweepSpec `json:"spec"`
	// Units is the initial decomposition width (clamped to the grid's
	// coordinate count at creation).
	Units            int   `json:"units"`
	LeaseTTLMillis   int64 `json:"leaseTtlMillis"`
	GCIntervalMillis int64 `json:"gcIntervalMillis"`
	Reshard          bool  `json:"reshard"`
}

// LeaseTTL returns the header's lease TTL as a duration.
func (h StateHeader) LeaseTTL() time.Duration {
	return time.Duration(h.LeaseTTLMillis) * time.Millisecond
}

// GCInterval returns the header's GC cadence as a duration.
func (h StateHeader) GCInterval() time.Duration {
	return time.Duration(h.GCIntervalMillis) * time.Millisecond
}

// stateEvent is one logged transition.
type stateEvent struct {
	// Ev is the transition kind: "grant", "requeue", "done", "end".
	Ev string `json:"ev"`
	// Unit names the affected work unit in "i/n" form.
	Unit string `json:"unit,omitempty"`
	// Lease is the lease the transition belongs to ("" for a done
	// detected from journal coverage alone).
	Lease  string `json:"lease,omitempty"`
	Worker string `json:"worker,omitempty"`
	// Offset is the campaign journal's instance count at grant time.
	Offset int `json:"offset,omitempty"`
	// Split marks a requeue that replaced the unit with its two
	// half-width children.
	Split bool `json:"split,omitempty"`
	// State is the terminal campaign state of an "end" event.
	State string `json:"state,omitempty"`
}

// State is a lease log read back: the header, the decoded events of the
// intact prefix, the terminal state ("" while the campaign is live), and
// the format and intact length the log reopens with for appending.
type State struct {
	Header   StateHeader
	Events   []stateEvent
	Terminal string
	Format   exp.Format
	ValidLen int64
}

// ReadState reads a lease log without modifying it. A torn tail — the
// signature of a coordinator killed mid-write — is dropped by the record
// log's scan (exp.ScanRecords): the transition it would have recorded
// was never acknowledged, so losing it is consistent by construction.
func ReadState(path string) (State, error) {
	var st State
	err := exp.ScanRecords(path,
		func(format exp.Format, raw []byte, end int64) error {
			if err := json.Unmarshal(raw, &st.Header); err != nil {
				return fmt.Errorf("header: %w", err)
			}
			if st.Header.V != 1 {
				return fmt.Errorf("unknown version %d", st.Header.V)
			}
			st.Format, st.ValidLen = format, end
			return nil
		},
		func(payload []byte, end int64) error {
			var ev stateEvent
			if err := json.Unmarshal(payload, &ev); err != nil {
				return err
			}
			if ev.Ev == "end" {
				st.Terminal = ev.State
			}
			st.Events = append(st.Events, ev)
			st.ValidLen = end
			return nil
		})
	if err != nil {
		return State{}, fmt.Errorf("cluster: read state %s: %w", path, err)
	}
	return st, nil
}

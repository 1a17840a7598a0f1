package grid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tightsched/internal/rng"
)

func testShape() Shape { return Shape{M: 5, Iterations: 5, AppProcs: 4, Ncom: 6} }

// TestAdmissionPriorities pins each built-in policy's ordering on a
// queue that separates them: FCFS by arrival slot, SJF by wmin, EDF by
// absolute deadline with deadline-free applications always last.
func TestAdmissionPriorities(t *testing.T) {
	queue := []Arrival{
		{T: 0, App: "early-heavy", Wmin: 3, Deadline: 5000},
		{T: 100, App: "light-lax", Wmin: 1, Deadline: 9000},
		{T: 200, App: "urgent", Wmin: 2, Deadline: 300},
		{T: 300, App: "no-deadline", Wmin: 1},
	}
	cases := []struct {
		policy string
		order  []string
	}{
		{"fcfs", []string{"early-heavy", "light-lax", "urgent", "no-deadline"}},
		{"sjf", []string{"light-lax", "no-deadline", "urgent", "early-heavy"}},
		{"edf", []string{"urgent", "early-heavy", "light-lax", "no-deadline"}},
	}
	for _, tc := range cases {
		t.Run(tc.policy, func(t *testing.T) {
			pol, err := Admission(tc.policy)
			if err != nil {
				t.Fatal(err)
			}
			sorted := append([]Arrival(nil), queue...)
			sort.SliceStable(sorted, func(i, j int) bool {
				pi, pj := pol.Priority(sorted[i], 400), pol.Priority(sorted[j], 400)
				if pi != pj {
					return pi < pj
				}
				return sorted[i].T < sorted[j].T // the engine's tie-break
			})
			var got []string
			for _, a := range sorted {
				got = append(got, a.App)
			}
			if !reflect.DeepEqual(got, tc.order) {
				t.Errorf("%s order = %v, want %v", tc.policy, got, tc.order)
			}
		})
	}
	edf, _ := Admission("edf")
	if p := edf.Priority(Arrival{T: 10, App: "free"}, 0); !math.IsInf(p, 1) {
		t.Errorf("edf priority of a deadline-free app = %v, want +Inf", p)
	}
}

// TestPreemptionVictimSelection: lowest-priority evicts the worst
// running application, and only when the candidate is strictly better —
// otherwise a preemption loop could thrash forever.
func TestPreemptionVictimSelection(t *testing.T) {
	pre, err := Preemption("lowest-priority")
	if err != nil {
		t.Fatal(err)
	}
	adm, _ := Admission("sjf")
	prio := adm.Priority
	running := []Arrival{
		{T: 0, App: "mid", Wmin: 2},
		{T: 10, App: "heavy", Wmin: 5},
		{T: 20, App: "light", Wmin: 1},
	}
	if v := pre.Victim(Arrival{T: 30, App: "cand", Wmin: 1}, running, 30, prio); v != 1 {
		t.Errorf("victim = %d, want 1 (the heaviest running app)", v)
	}
	// A candidate no better than every running app must wait.
	if v := pre.Victim(Arrival{T: 30, App: "cand", Wmin: 5}, running, 30, prio); v != -1 {
		t.Errorf("equal-priority candidate evicted %d, want -1", v)
	}

	none, err := Preemption("none")
	if err != nil {
		t.Fatal(err)
	}
	if v := none.Victim(Arrival{T: 30, App: "cand", Wmin: 1}, running, 30, prio); v != -1 {
		t.Errorf("none policy evicted %d, want -1", v)
	}
}

// TestPolicyRegistry: sorted listings, fresh instances, unknown names
// rejected with the available choices, and bad registrations refused.
func TestPolicyRegistry(t *testing.T) {
	adm, pre := AdmissionNames(), PreemptionNames()
	if !sort.StringsAreSorted(adm) || !sort.StringsAreSorted(pre) {
		t.Errorf("registry listings not sorted: %v, %v", adm, pre)
	}
	for _, want := range []string{"fcfs", "sjf", "edf"} {
		if !slicesContains(adm, want) {
			t.Errorf("admission registry %v missing built-in %q", adm, want)
		}
	}
	for _, want := range []string{"none", "lowest-priority"} {
		if !slicesContains(pre, want) {
			t.Errorf("preemption registry %v missing built-in %q", pre, want)
		}
	}
	if _, err := Admission("vip-first"); err == nil || !strings.Contains(err.Error(), "fcfs") {
		t.Errorf("unknown admission error %v should name the available policies", err)
	}
	if _, err := Preemption("chaos"); err == nil || !strings.Contains(err.Error(), "none") {
		t.Errorf("unknown preemption error %v should name the available policies", err)
	}
	if err := RegisterAdmission("fcfs", func() AdmissionPolicy { return fcfsPolicy{} }); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := RegisterAdmission("misnamed", func() AdmissionPolicy { return fcfsPolicy{} }); err == nil {
		t.Error("factory whose policy Name differs from the key accepted")
	}
}

func slicesContains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// TestPoissonMaterializeDeterministic: the same spec and stream key
// yield the same arrivals; a different trial key yields a different
// stream. This is the property grid campaigns' byte-determinism across
// worker counts and resume rests on.
func TestPoissonMaterializeDeterministic(t *testing.T) {
	spec := ArrivalSpec{Kind: KindPoisson, MeanGap: 120, Apps: 12, WminLo: 1, WminHi: 3, DeadlineFactor: 15}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	shape := testShape()
	a := spec.Materialize(rng.NewKeyed(7, 0xa221), shape)
	b := spec.Materialize(rng.NewKeyed(7, 0xa221), shape)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed materialized different arrival streams")
	}
	if len(a) != spec.Apps {
		t.Fatalf("materialized %d arrivals, want %d", len(a), spec.Apps)
	}
	for i, arr := range a {
		if i > 0 && arr.T < a[i-1].T {
			t.Fatalf("arrival %d at t=%d before its predecessor t=%d", i, arr.T, a[i-1].T)
		}
		if arr.Wmin < spec.WminLo || arr.Wmin > spec.WminHi {
			t.Fatalf("arrival %d wmin %d outside [%d, %d]", i, arr.Wmin, spec.WminLo, spec.WminHi)
		}
		if want := int64(math.Ceil(spec.DeadlineFactor * float64(shape.Bound(arr.Wmin)))); arr.Deadline != want {
			t.Fatalf("arrival %d deadline %d, want %d (factor x bound)", i, arr.Deadline, want)
		}
	}
	other := spec.Materialize(rng.NewKeyed(8, 0xa221), shape)
	if reflect.DeepEqual(a, other) {
		t.Fatal("different seeds materialized identical arrival streams")
	}

	// Traces replay verbatim, consume no randomness, and clone — the
	// caller may mutate the result without corrupting the spec.
	trace := ArrivalSpec{Kind: KindTrace, Trace: []Arrival{{T: 0, App: "a0", Wmin: 1}, {T: 5, App: "a1", Wmin: 2}}}
	got := trace.Materialize(rng.NewKeyed(7, 0xa221), shape)
	if !reflect.DeepEqual(got, trace.Trace) {
		t.Fatalf("trace materialized %+v, want the entries verbatim", got)
	}
	got[0].App = "mutated"
	if trace.Trace[0].App != "a0" {
		t.Error("materialized trace aliases the spec's entries")
	}
}

// TestArrivalSpecValidate covers the malformed-spec space: the sweep
// validator and the daemon's spec decoder both lean on these messages.
func TestArrivalSpecValidate(t *testing.T) {
	cases := []struct {
		name    string
		spec    ArrivalSpec
		wantErr string
	}{
		{"no kind", ArrivalSpec{}, "no kind"},
		{"unknown kind", ArrivalSpec{Kind: "burst"}, "unknown arrival kind"},
		{"poisson no gap", ArrivalSpec{Kind: KindPoisson, Apps: 5, WminLo: 1, WminHi: 2}, "meanGap"},
		{"poisson no apps", ArrivalSpec{Kind: KindPoisson, MeanGap: 100, WminLo: 1, WminHi: 2}, "apps"},
		{"poisson bad wmin range", ArrivalSpec{Kind: KindPoisson, MeanGap: 100, Apps: 5, WminLo: 3, WminHi: 1}, "wmin range"},
		{"poisson negative factor", ArrivalSpec{Kind: KindPoisson, MeanGap: 100, Apps: 5, WminLo: 1, WminHi: 2, DeadlineFactor: -1}, "deadlineFactor"},
		{"poisson with trace", ArrivalSpec{Kind: KindPoisson, MeanGap: 100, Apps: 5, WminLo: 1, WminHi: 2, Trace: []Arrival{{App: "x", Wmin: 1}}}, "carries trace entries"},
		{"trace empty", ArrivalSpec{Kind: KindTrace}, "no entries"},
		{"trace with poisson fields", ArrivalSpec{Kind: KindTrace, MeanGap: 9, Trace: []Arrival{{App: "x", Wmin: 1}}}, "poisson fields"},
		{"trace out of order", ArrivalSpec{Kind: KindTrace, Trace: []Arrival{{T: 10, App: "a", Wmin: 1}, {T: 5, App: "b", Wmin: 1}}}, "before"},
		{"trace unnamed app", ArrivalSpec{Kind: KindTrace, Trace: []Arrival{{T: 0, Wmin: 1}}}, "no app name"},
		{"trace bad wmin", ArrivalSpec{Kind: KindTrace, Trace: []Arrival{{T: 0, App: "a"}}}, "wmin"},
		{"trace negative deadline", ArrivalSpec{Kind: KindTrace, Trace: []Arrival{{T: 0, App: "a", Wmin: 1, Deadline: -5}}}, "deadline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil {
				t.Fatal("spec accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseTrace: the JSONL reader skips blanks and comments, rejects
// unknown fields with the line number, and validates like ArrivalSpec.
func TestParseTrace(t *testing.T) {
	entries, err := ParseTrace([]byte(`
# morning burst
{"t": 0, "app": "a0", "wmin": 1, "deadline": 700}

{"t": 40, "app": "a1", "wmin": 2}
`))
	if err != nil {
		t.Fatal(err)
	}
	want := []Arrival{{T: 0, App: "a0", Wmin: 1, Deadline: 700}, {T: 40, App: "a1", Wmin: 2}}
	if !reflect.DeepEqual(entries, want) {
		t.Errorf("parsed %+v, want %+v", entries, want)
	}

	if _, err := ParseTrace([]byte("{\"t\": 0, \"app\": \"a0\", \"wmin\": 1}\n{\"t\": 5, \"priority\": 3}\n")); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Errorf("unknown field error %v should carry the line number", err)
	}
	if _, err := ParseTrace([]byte(`{"t": 0, "app": "a0", "wmin": 0}`)); err == nil {
		t.Error("trace with non-positive wmin accepted")
	}
	// One object per line: a second value or garbage after the first is
	// an error, not silently dropped.
	for _, tc := range []struct {
		doc  string
		line int
	}{
		{`{"t":0,"app":"a0","wmin":1} {"t":7,"app":"a1","wmin":1}`, 1},
		{"{\"t\":0,\"app\":\"a0\",\"wmin\":1}\n{\"t\":3,\"app\":\"a1\",\"wmin\":1} garbage", 2},
		{`{"t":0,"app":"a0","wmin":1}}`, 1},
	} {
		entries, err := ParseTrace([]byte(tc.doc))
		if want := fmt.Sprintf("grid: trace line %d: trailing content", tc.line); err == nil || err.Error() != want {
			t.Errorf("ParseTrace(%q) = %+v, %v; want error %q", tc.doc, entries, err, want)
		}
	}
}

// FuzzParseTrace: ParseTrace never panics, and every trace it accepts
// survives a JSONL round trip: re-encoded one entry per line, it parses
// back to the same entries.
func FuzzParseTrace(f *testing.F) {
	for _, seed := range []string{
		"# morning burst\n{\"t\": 0, \"app\": \"a0\", \"wmin\": 1, \"deadline\": 700}\n\n{\"t\": 40, \"app\": \"a1\", \"wmin\": 2}\n",
		"{\"t\": 0, \"app\": \"a0\", \"wmin\": 1}\n{\"t\": 5, \"priority\": 3}\n",
		`{"t": 0, "app": "a0", "wmin": 0}`,
		`{"t":0,"app":"a0","wmin":1} {"t":7,"app":"a1","wmin":1}`,
		`{"t":0,"app":"a0","wmin":1} garbage`,
		"{\"t\":3,\"app\":\"\\u00e9<&>\",\"wmin\":2}\r\n{\"t\":3,\"app\":\"b\",\"wmin\":9,\"deadline\":0}",
		"",
		"null",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := ParseTrace(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, e := range entries {
			if err := enc.Encode(e); err != nil {
				t.Fatalf("encode %+v: %v", e, err)
			}
		}
		again, err := ParseTrace(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(again, entries) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", again, entries)
		}
	})
}

// TestShapeBound pins the crude service-time lower bound the slowdown
// metric divides by: the 5·wmin program download once, then per
// iteration ceil(m·wmin/ncom) data slots plus wmin·ceil(m/appProcs)
// compute slots.
func TestShapeBound(t *testing.T) {
	s := testShape() // m=5, iterations=5, appProcs=4, ncom=6
	// 5 + 5·(ceil(5/6) + 1·ceil(5/4)) = 5 + 5·3 = 20.
	if got := s.Bound(1); got != 20 {
		t.Errorf("Bound(1) = %d, want 20", got)
	}
	// 15 + 5·(ceil(15/6) + 3·ceil(5/4)) = 15 + 5·9 = 60.
	if got := s.Bound(3); got != 60 {
		t.Errorf("Bound(3) = %d, want 60", got)
	}
	if s.Bound(2) <= s.Bound(1) {
		t.Error("bound must grow with wmin")
	}
}

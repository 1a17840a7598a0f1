package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tightsched"
)

// tinySpec is a sub-second campaign: 1 point, 1 trial, three heuristics.
const tinySpec = `
version: 1
name: tiny
sweep:
  m: 5
  ncoms: [5]
  wmins: [1]
  scenarios: 1
  trials: 1
  cap: 50000
  seed: 7
  heuristics: [IE, Y-IE, RANDOM]
`

// slowSpec is big enough to reliably cancel mid-run (255 instances,
// pinned to one worker for predictable pacing) yet cheap enough that the
// resume test can afford to finish it twice.
const slowSpec = `
version: 1
name: slow
sweep:
  m: 5
  ncoms: [5, 10, 20]
  wmins: [1, 2, 3, 4, 5]
  scenarios: 1
  trials: 1
  cap: 100000
  seed: 20130522
run:
  workers: 1
`

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(Config{DataDir: t.TempDir(), Runners: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// submit POSTs a spec and decodes the 202 status.
func submit(t *testing.T, ts *httptest.Server, spec, contentType string) Status {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/campaigns", contentType, strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit response: %v\n%s", err, body)
	}
	return st
}

// getStatus decodes GET /v1/campaigns/{id}.
func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the campaign reaches a terminal state.
func waitState(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getStatus(t, ts, id)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s still %s after 60s", id, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCampaignLifecycleAndTableParity is the in-tree half of the CI
// daemon-e2e gate: submit → succeed → fetch the Table I artifact, and
// require it byte-identical to what the library (and therefore
// cmd/tables) renders for the same spec.
func TestCampaignLifecycleAndTableParity(t *testing.T) {
	_, ts := newTestServer(t)
	st := submit(t, ts, tinySpec, "application/yaml")
	if st.State != StatePending && st.State != StateRunning {
		t.Fatalf("fresh campaign state = %s", st.State)
	}
	if st.Journal == "" {
		t.Fatal("journaling defaults on; status should name the journal file")
	}

	final := waitState(t, ts, st.ID)
	if final.State != StateSucceeded {
		t.Fatalf("campaign ended %s (%s)", final.State, final.Error)
	}
	if final.Progress.Completed != final.Progress.Total || final.Progress.Total != 3 {
		t.Errorf("progress = %+v, want 3/3", final.Progress)
	}
	if final.WallSeconds <= 0 {
		t.Errorf("wallSeconds = %v, want > 0", final.WallSeconds)
	}

	resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/tables/1")
	if err != nil {
		t.Fatal(err)
	}
	served, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tables/1: %s: %s", resp.Status, served)
	}

	// Reference rendering straight through the library.
	spec, serr := DecodeSpec([]byte(tinySpec), "application/yaml")
	if serr != nil {
		t.Fatal(serr)
	}
	session := tightsched.NewSession()
	res, err := session.RunSweep(context.Background(), spec.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tightsched.RenderTableArtifact(res, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(served) != want {
		t.Errorf("served artifact differs from library rendering:\n--- served ---\n%s\n--- want ---\n%s", served, want)
	}

	// The journal on disk replays to the same result.
	merged, err := tightsched.MergeSweepJournals(final.Journal)
	if err != nil {
		t.Fatal(err)
	}
	fromJournal, err := tightsched.RenderTableArtifact(merged, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fromJournal != want {
		t.Error("journal replay renders a different artifact")
	}

	// Table II needs m = 10; the mismatch is a structured 409, not a 500.
	resp, err = http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/tables/2")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("tables/2 on an m=5 campaign: %s, want 409", resp.Status)
	}
}

// TestSubmitValidationHTTP: the structured 400 contract over the wire —
// each defective spec answers with {"error": {"path", "message"}}.
func TestSubmitValidationHTTP(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body, contentType, wantPath string
	}{
		{"unknown field", "version: 1\npreset: quick\nsweep:\n  m: 5\n  turbo: 9\n", "application/yaml", "sweep.turbo"},
		{"bad advance", "version: 1\npreset: quick\nsweep:\n  m: 5\nrun:\n  advance: warp\n", "application/yaml", "run.advance"},
		{"bad shard", `{"version":1,"preset":"quick","sweep":{"m":5},"run":{"shard":"5/2"}}`, "application/json", "run.shard"},
		{"missing axes", "version: 1\nsweep:\n  m: 5\n", "application/yaml", "sweep.ncoms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/campaigns", tc.contentType, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %s, want 400", resp.Status)
			}
			var envelope struct {
				Error SpecError `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
				t.Fatal(err)
			}
			if envelope.Error.Path != tc.wantPath {
				t.Errorf("error.path = %q, want %q (message %q)", envelope.Error.Path, tc.wantPath, envelope.Error.Message)
			}
		})
	}

	// Unknown campaign and unknown table are 404s.
	for _, path := range []string{"/v1/campaigns/nope", "/v1/campaigns/nope/tables/1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %s, want 404", path, resp.Status)
		}
	}
}

// sseClient consumes one campaign's SSE stream until it closes, counting
// events by name.
type sseClient struct {
	events map[string]int
	final  bool // saw a terminal "state" event as the last message
	err    error
}

// consumeSSE reads the stream until the server closes it, signalling
// ready after the snapshot "state" event proves the subscription is
// live.
func consumeSSE(ts *httptest.Server, id string, ready chan<- struct{}) *sseClient {
	c := &sseClient{events: map[string]int{}}
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/events")
	if err != nil {
		c.err = err
		close(ready)
		return c
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var event string
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			c.events[event]++
			if !signalled {
				signalled = true
				close(ready)
			}
		case strings.HasPrefix(line, "data: ") && event == "state":
			var st Status
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st) == nil {
				c.final = st.State.Terminal()
			}
		}
	}
	c.err = sc.Err()
	if !signalled {
		close(ready)
	}
	return c
}

// TestSSECancelNoLeak is the daemon's shutdown/cancel leak guard (run
// under -race in CI): N concurrent SSE subscribers on a running
// campaign, DELETE mid-run, and afterwards every subscriber has seen a
// terminal state event and no goroutine survives.
func TestSSECancelNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, err := NewServer(Config{DataDir: t.TempDir(), Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	st := submit(t, ts, slowSpec, "application/yaml")

	const subscribers = 4
	var wg sync.WaitGroup
	clients := make([]*sseClient, subscribers)
	readies := make([]chan struct{}, subscribers)
	for i := range clients {
		readies[i] = make(chan struct{})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clients[i] = consumeSSE(ts, st.ID, readies[i])
		}(i)
	}
	for _, ready := range readies {
		select {
		case <-ready:
		case <-time.After(30 * time.Second):
			t.Fatal("subscriber never received its snapshot")
		}
	}

	// Let the campaign complete instances after every subscription is
	// live, so each subscriber observes real instance traffic before the
	// cancel.
	mark := getStatus(t, ts, st.ID).Progress.Completed
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts, st.ID).Progress.Completed < mark+10 {
		if time.Now().After(deadline) {
			t.Fatal("campaign made no progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	final := waitState(t, ts, st.ID)
	if final.State != StateCancelled {
		t.Fatalf("state after DELETE = %s", final.State)
	}
	if final.Progress.Completed == 0 || final.Progress.Completed >= final.Progress.Total {
		t.Errorf("cancel should land mid-run, progress = %+v", final.Progress)
	}
	wg.Wait()
	for i, c := range clients {
		if c.err != nil {
			t.Errorf("subscriber %d: %v", i, c.err)
		}
		if !c.final {
			t.Errorf("subscriber %d: stream ended without a terminal state event (events %v)", i, c.events)
		}
		if c.events["instance"] == 0 {
			t.Errorf("subscriber %d saw no instance events", i)
		}
	}

	// The journal holds exactly the completed instances, ready to resume.
	if merged, err := tightsched.MergeSweepJournals(final.Journal); err == nil {
		t.Errorf("cancelled journal unexpectedly complete (%d instances)", len(merged.Instances))
	}

	ts.Close()
	srv.Close()
	waitForGoroutines(t, base)
}

// TestCancelledCampaignJournalResumes is the acceptance bit-identity
// check: cancel a campaign mid-run, then complete its journal with
// Session.ResumeSweep and require the finished artifact byte-identical
// to an uninterrupted run of the same spec.
func TestCancelledCampaignJournalResumes(t *testing.T) {
	_, ts := newTestServer(t)
	st := submit(t, ts, slowSpec, "application/yaml")

	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts, st.ID).Progress.Completed < 10 {
		if time.Now().After(deadline) {
			t.Fatal("campaign made no progress")
		}
		time.Sleep(10 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	final := waitState(t, ts, st.ID)
	if final.State != StateCancelled {
		t.Fatalf("state after DELETE = %s", final.State)
	}

	// Resume the daemon's journal outside the daemon — the same
	// "tables -resume -journal" path an operator would use.
	session := tightsched.NewSession()
	resumed, err := session.ResumeSweep(context.Background(), final.Journal)
	if err != nil {
		t.Fatal(err)
	}
	resumedArtifact, err := tightsched.RenderTableArtifact(resumed, 1)
	if err != nil {
		t.Fatal(err)
	}

	spec, serr := DecodeSpec([]byte(slowSpec), "application/yaml")
	if serr != nil {
		t.Fatal(serr)
	}
	straight, err := session.RunSweep(context.Background(), spec.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	straightArtifact, err := tightsched.RenderTableArtifact(straight, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resumedArtifact != straightArtifact {
		t.Error("resumed campaign renders a different Table I than an uninterrupted run")
	}
}

// TestMetricsAndHealth: the liveness probe and the Prometheus exposition
// carry the campaign counters.
func TestMetricsAndHealth(t *testing.T) {
	_, ts := newTestServer(t)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz = %s %q", resp.Status, body)
	}

	st := submit(t, ts, tinySpec, "")
	waitState(t, ts, st.ID)

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(body)
	for _, want := range []string{
		`tightsched_campaigns{state="succeeded"} 1`,
		"tightsched_instances_completed_total 3",
		"tightsched_campaigns_submitted_total 1",
		`tightsched_cache_lookups_total{cache="memo",outcome="hit"}`,
		`tightsched_cache_lookups_total{cache="values",outcome="hit"}`,
		`tightsched_greedy_candidates_total{outcome="scored"}`,
		`tightsched_greedy_candidates_total{outcome="reused"}`,
		fmt.Sprintf(`tightsched_campaign_wall_seconds{campaign="%s",state="succeeded"}`, st.ID),
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}

	// The heuristic and model registries are served for spec authors.
	for _, path := range []string{"/v1/heuristics", "/v1/models"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var payload map[string][]string
		err = json.NewDecoder(resp.Body).Decode(&payload)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		for _, names := range payload {
			if len(names) == 0 {
				t.Errorf("GET %s returned no names", path)
			}
		}
	}
}

// waitForGoroutines polls until the goroutine count returns to the
// baseline (the session_test.go leak-guard pattern).
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerCloseCancelsPending: Close resolves queued campaigns too —
// a pending campaign must terminate "cancelled", not hang.
func TestServerCloseCancelsPending(t *testing.T) {
	srv, err := NewServer(Config{DataDir: t.TempDir(), Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	running := submit(t, ts, slowSpec, "")
	queued := submit(t, ts, tinySpec, "")

	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts, running.ID).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first campaign never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := getStatus(t, ts, queued.ID).State; st != StatePending {
		t.Fatalf("second campaign should queue behind the single runner, got %s", st)
	}

	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return")
	}
	if st := getStatus(t, ts, queued.ID).State; st != StateCancelled {
		t.Errorf("pending campaign after Close = %s, want cancelled", st)
	}
	if st := getStatus(t, ts, running.ID).State; st != StateCancelled {
		t.Errorf("running campaign after Close = %s, want cancelled", st)
	}
}

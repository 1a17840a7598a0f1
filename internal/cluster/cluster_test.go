package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tightsched/internal/exp"
	"tightsched/internal/retry"
)

// tinySweep is a fast campaign with the paper sweep's full shape.
func tinySweep(heuristics []string) exp.Sweep {
	return exp.Sweep{
		M: 3, Ncoms: []int{5}, Wmins: []int{1, 2}, Scenarios: 2, Trials: 2,
		P: 8, Iterations: 2, Cap: 50_000, Seed: 99, Heuristics: heuristics,
	}
}

// fakeClock is the coordinator's injectable time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testCoordinator builds a coordinator over a fresh journal in dir.
func testCoordinator(t testing.TB, dir string, sweep exp.Sweep, mut func(*Config)) (*Coordinator, *exp.Journal) {
	t.Helper()
	j, err := exp.CreateJournal(filepath.Join(dir, "c.journal"), sweep, exp.Shard{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Campaign:  "ctest",
		Sweep:     sweep,
		Units:     4,
		LeaseTTL:  10 * time.Second,
		Journal:   j,
		StatePath: filepath.Join(dir, "c.leases"),
		Logf:      t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	co, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return co, j
}

// unitRecords simulates one unit's instances out-of-band (no journal)
// and returns them in wire form — what an honest worker would upload.
func unitRecords(t *testing.T, sweep exp.Sweep, unit string) []Record {
	t.Helper()
	sh, err := exp.ParseShard(unit)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background(), sweep, exp.RunOptions{Shard: sh})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, 0, len(res.Instances))
	for _, inst := range res.Instances {
		recs = append(recs, RecordOf(inst))
	}
	return recs
}

// assertSameResults compares instance sets by coordinate key.
func assertSameResults(t *testing.T, want, got []exp.InstanceResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("instance count: want %d, got %d", len(want), len(got))
	}
	wm := map[exp.Key]exp.InstanceResult{}
	for _, inst := range want {
		wm[inst.Key()] = inst
	}
	for _, inst := range got {
		ref, ok := wm[inst.Key()]
		if !ok {
			t.Fatalf("unexpected instance %+v", inst)
		}
		if !reflect.DeepEqual(ref, inst) {
			t.Fatalf("instance %+v: want %+v, got %+v", inst.Key(), ref, inst)
		}
	}
}

// drain completes the campaign by honestly working every remaining
// lease, like an idle-polling worker fleet would.
func drain(t *testing.T, co *Coordinator, sweep exp.Sweep) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		grant, err := co.Claim("drain")
		if errors.Is(err, ErrCampaignDone) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if grant == nil {
			t.Fatal("no unit available but campaign not done (leases stuck?)")
		}
		if _, err := co.Ingest(grant.Lease, unitRecords(t, sweep, grant.Unit)); err != nil {
			t.Fatal(err)
		}
		if err := co.Complete(grant.Lease); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("campaign did not complete after 1000 leases")
}

func TestLeaseLifecycle(t *testing.T) {
	s := tinySweep([]string{"IE", "RANDOM"})
	clock := newFakeClock()
	co, j := testCoordinator(t, t.TempDir(), s, func(c *Config) { c.Now = clock.Now })
	defer co.Close()
	defer j.Close()

	grant, err := co.Claim("w1")
	if err != nil || grant == nil {
		t.Fatalf("claim: grant=%v err=%v", grant, err)
	}
	if grant.Total != co.Total() || grant.Done != 0 {
		t.Fatalf("grant counters: %+v", grant)
	}

	// Heartbeats extend the deadline by a full TTL from "now".
	clock.Advance(5 * time.Second)
	deadline, err := co.Heartbeat(grant.Lease)
	if err != nil {
		t.Fatal(err)
	}
	if want := clock.Now().Add(10 * time.Second); !deadline.Equal(want) {
		t.Fatalf("renewed deadline %v, want %v", deadline, want)
	}

	// Completing before the journal covers the unit refuses and
	// requeues: the lease dies, the unit becomes claimable again.
	if err := co.Complete(grant.Lease); !errors.Is(err, ErrUnitIncomplete) {
		t.Fatalf("premature complete: %v, want ErrUnitIncomplete", err)
	}
	if _, err := co.Heartbeat(grant.Lease); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("heartbeat after requeue: %v, want ErrLeaseGone", err)
	}
	// Requeued units rejoin the tail of the queue; the next claim
	// simply gets whatever is first in line.
	re, err := co.Claim("w2")
	if err != nil || re == nil {
		t.Fatalf("reclaim: %v, %v", re, err)
	}

	// Honest completion: upload everything, complete, lease resolves.
	recs := unitRecords(t, s, re.Unit)
	resp, err := co.Ingest(re.Lease, recs)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != len(recs) || resp.Duplicates != 0 || resp.Conflicts != 0 || !resp.LeaseLive {
		t.Fatalf("ingest response: %+v", resp)
	}
	if err := co.Complete(re.Lease); err != nil {
		t.Fatal(err)
	}
	st := co.Snapshot()
	if st.UnitsDone != 1 || st.Granted != 2 || st.Requeued != 1 {
		t.Fatalf("stats after one unit: %+v", st)
	}

	drain(t, co, s)
	select {
	case <-co.Done():
	default:
		t.Fatal("Done channel not closed after full coverage")
	}

	ref, err := exp.Run(context.Background(), s, exp.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, ref.Instances, j.Instances())
}

func TestGCExpiryRequeueAndReshard(t *testing.T) {
	s := tinySweep([]string{"IE"})
	clock := newFakeClock()
	co, j := testCoordinator(t, t.TempDir(), s, func(c *Config) {
		c.Now = clock.Now
		c.Reshard = true
		c.Units = 2 // 8 coords: units 0/2 and 1/2, both splittable
	})
	defer co.Close()
	defer j.Close()

	grant, err := co.Claim("doomed")
	if err != nil || grant == nil {
		t.Fatalf("claim: %v, %v", grant, err)
	}

	// Within the TTL nothing expires.
	if n, err := co.GC(); err != nil || n != 0 {
		t.Fatalf("early GC: %d, %v", n, err)
	}
	clock.Advance(11 * time.Second)
	n, err := co.GC()
	if err != nil || n != 1 {
		t.Fatalf("GC after TTL: expired %d, %v", n, err)
	}
	if _, err := co.Heartbeat(grant.Lease); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("heartbeat after expiry: %v", err)
	}

	// Resharding replaced 0/2 with 0/4 and 2/4, queued behind 1/2.
	var units []string
	for i := 0; i < 3; i++ {
		g, err := co.Claim("fleet")
		if err != nil || g == nil {
			t.Fatalf("claim %d: %v, %v", i, g, err)
		}
		units = append(units, g.Unit)
	}
	if want := []string{"1/2", "0/4", "2/4"}; !reflect.DeepEqual(units, want) {
		t.Fatalf("post-reshard claim order: %v, want %v", units, want)
	}
	st := co.Snapshot()
	if st.Requeued != 1 || st.Resharded != 1 || st.Expired != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestExpiryDuringUpload is the in-flight-results race: the lease
// expires while the worker is mid-upload. The upload is still accepted
// (the instances are valid — determinism doesn't care who computed
// them) but the response tells the worker to stop; the requeued unit
// then completes instantly on its next claim because the journal
// already covers it.
func TestExpiryDuringUpload(t *testing.T) {
	s := tinySweep([]string{"IE"})
	clock := newFakeClock()
	co, j := testCoordinator(t, t.TempDir(), s, func(c *Config) {
		c.Now = clock.Now
		c.Units = 1
	})
	defer co.Close()
	defer j.Close()

	grant, err := co.Claim("slow")
	if err != nil || grant == nil {
		t.Fatalf("claim: %v, %v", grant, err)
	}
	recs := unitRecords(t, s, grant.Unit)

	clock.Advance(11 * time.Second)
	if n, _ := co.GC(); n != 1 {
		t.Fatalf("expected 1 expiry, got %d", n)
	}

	resp, err := co.Ingest(grant.Lease, recs)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != len(recs) || resp.LeaseLive {
		t.Fatalf("dead-lease ingest: %+v", resp)
	}

	// That upload covered the whole grid, so the campaign ended on the
	// spot — the requeued unit settled without a second lease, and the
	// slow worker's late Complete is acknowledged, not refused.
	if err := co.Complete(grant.Lease); err != nil {
		t.Fatalf("complete after success: %v", err)
	}
	if _, err := co.Claim("next"); !errors.Is(err, ErrCampaignDone) {
		t.Fatalf("claim after success: %v, want ErrCampaignDone", err)
	}
	select {
	case <-co.Done():
	default:
		t.Fatal("campaign not done")
	}
}

func TestIngestDedupAndConflict(t *testing.T) {
	s := tinySweep([]string{"IE", "RANDOM"})
	co, j := testCoordinator(t, t.TempDir(), s, nil)
	defer co.Close()
	defer j.Close()

	grant, err := co.Claim("w")
	if err != nil || grant == nil {
		t.Fatalf("claim: %v, %v", grant, err)
	}
	recs := unitRecords(t, s, grant.Unit)
	if _, err := co.Ingest(grant.Lease, recs); err != nil {
		t.Fatal(err)
	}

	// A resurrected worker re-uploads the identical batch: all dupes.
	resp, err := co.Ingest(grant.Lease, recs)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Duplicates != len(recs) || resp.Accepted != 0 || resp.Conflicts != 0 {
		t.Fatalf("duplicate ingest: %+v", resp)
	}

	// A corrupted record (same coordinate, different outcome) is
	// refused and counted; the journal keeps the original.
	bad := recs[0]
	bad.Makespan += 7
	resp, err = co.Ingest(grant.Lease, []Record{bad})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Conflicts != 1 || resp.Accepted != 0 {
		t.Fatalf("conflict ingest: %+v", resp)
	}
	if got, _ := j.Done(bad.Instance().Key()); got.Makespan != recs[0].Makespan {
		t.Fatalf("conflict overwrote journal: %+v", got)
	}

	// A record off the campaign grid is an error, not a journal entry.
	off := recs[0]
	off.Heuristic = "Y-IE" // not in this campaign's heuristic set
	if _, err := co.Ingest(grant.Lease, []Record{off}); err == nil {
		t.Fatal("off-grid record accepted")
	}
}

// TestCoordinatorRestart kills the coordinator mid-campaign (process
// death: nothing flushed beyond the lease log's acknowledged
// transitions) and restarts it over the same files. Granted leases
// survive with fresh deadlines, expire through GC since their workers
// are gone too, and the campaign completes byte-identically.
func TestCoordinatorRestart(t *testing.T) {
	s := tinySweep([]string{"IE", "RANDOM"})
	dir := t.TempDir()
	clock := newFakeClock()

	co, j := testCoordinator(t, dir, s, func(c *Config) { c.Now = clock.Now })
	g1, err := co.Claim("w1")
	if err != nil || g1 == nil {
		t.Fatalf("claim 1: %v, %v", g1, err)
	}
	g2, err := co.Claim("w2")
	if err != nil || g2 == nil {
		t.Fatalf("claim 2: %v, %v", g2, err)
	}
	// w1 uploaded part of its unit before the coordinator died.
	recs := unitRecords(t, s, g1.Unit)
	if _, err := co.Ingest(g1.Lease, recs[:len(recs)/2]); err != nil {
		t.Fatal(err)
	}
	co.Close()
	j.Close()

	// Restart over the same journal + lease log.
	j2, err := exp.OpenJournal(filepath.Join(dir, "c.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	co2, err := Start(Config{
		Campaign: "ctest", Sweep: s, Units: 4, LeaseTTL: 10 * time.Second,
		Journal: j2, StatePath: filepath.Join(dir, "c.leases"),
		Logf: t.Logf, Now: clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()

	st := co2.Snapshot()
	if st.Leased != 2 || st.Done != len(recs)/2 {
		t.Fatalf("resumed stats: %+v", st)
	}
	// The dead workers' leases are re-armed for one TTL of grace, then
	// expire through the normal GC path.
	if n, _ := co2.GC(); n != 0 {
		t.Fatalf("GC inside grace window expired %d", n)
	}
	if _, err := co2.Heartbeat(g1.Lease); err != nil {
		t.Fatalf("surviving worker's heartbeat after restart: %v", err)
	}
	clock.Advance(11 * time.Second)
	if n, _ := co2.GC(); n != 2 {
		t.Fatalf("stale leases expired: %d, want 2", n)
	}

	drain(t, co2, s)
	ref, err := exp.Run(context.Background(), s, exp.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, ref.Instances, j2.Instances())

	// The terminal campaign refuses a third incarnation.
	j3, err := exp.OpenJournal(filepath.Join(dir, "c.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if _, err := Start(Config{
		Campaign: "ctest", Sweep: s, Units: 4, Journal: j3,
		StatePath: filepath.Join(dir, "c.leases"),
	}); err == nil || !strings.Contains(err.Error(), "already ended") {
		t.Fatalf("restarting an ended campaign: %v", err)
	}
}

// TestDoubleClaimRace hammers Claim/Complete from many goroutines under
// the race detector: a unit must never be live-leased twice.
func TestDoubleClaimRace(t *testing.T) {
	s := tinySweep([]string{"IE"})
	co, j := testCoordinator(t, t.TempDir(), s, func(c *Config) { c.Units = 4 })
	defer co.Close()
	defer j.Close()

	var mu sync.Mutex
	live := map[string]string{} // unit -> lease currently held by this test

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := fmt.Sprintf("w%d", w)
			for i := 0; i < 25; i++ {
				grant, err := co.Claim(worker)
				if err != nil || grant == nil {
					continue
				}
				mu.Lock()
				if holder, ok := live[grant.Unit]; ok {
					mu.Unlock()
					t.Errorf("unit %s double-leased (%s and %s)", grant.Unit, holder, grant.Lease)
					return
				}
				live[grant.Unit] = grant.Lease
				mu.Unlock()

				// Completing without coverage requeues the unit; the
				// lease dies first, so the unit is only reclaimable
				// after we drop it from the live set.
				mu.Lock()
				delete(live, grant.Unit)
				err = co.Complete(grant.Lease)
				mu.Unlock()
				if !errors.Is(err, ErrUnitIncomplete) {
					t.Errorf("complete: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := co.Snapshot()
	if st.Granted != st.Requeued {
		t.Fatalf("leaked leases: %+v", st)
	}
}

// clusterTestHandler mounts the coordinator behind the same routes
// internal/serve registers, so RunWorker is exercised over real HTTP.
func clusterTestHandler(co *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/claim", func(w http.ResponseWriter, r *http.Request) {
		grant, err := co.Claim(r.RemoteAddr)
		if err != nil || grant == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeTestJSON(w, http.StatusOK, grant)
	})
	mux.HandleFunc("POST /v1/campaigns/{id}/cluster/leases/{lease}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		deadline, err := co.Heartbeat(r.PathValue("lease"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusGone)
			return
		}
		writeTestJSON(w, http.StatusOK, HeartbeatResponse{Deadline: deadline})
	})
	mux.HandleFunc("POST /v1/campaigns/{id}/cluster/leases/{lease}/results", func(w http.ResponseWriter, r *http.Request) {
		var req UploadRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := co.Ingest(r.PathValue("lease"), req.Instances)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeTestJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/campaigns/{id}/cluster/leases/{lease}/complete", func(w http.ResponseWriter, r *http.Request) {
		switch err := co.Complete(r.PathValue("lease")); {
		case err == nil:
			writeTestJSON(w, http.StatusOK, CompleteResponse{Done: true})
		case errors.Is(err, ErrUnitIncomplete):
			http.Error(w, err.Error(), http.StatusConflict)
		default:
			http.Error(w, err.Error(), http.StatusGone)
		}
	})
	return mux
}

func writeTestJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// TestWorkerFleetWithCrash runs a real worker fleet over HTTP, kills
// one worker mid-campaign, and requires the journal to end up
// byte-identical to a sequential run — the package's acceptance bar.
func TestWorkerFleetWithCrash(t *testing.T) {
	s := tinySweep([]string{"IE", "RANDOM"})
	s.Wmins = []int{1, 2, 3} // 12 coords / 24 instances: room for a mid-flight kill
	co, j := testCoordinator(t, t.TempDir(), s, func(c *Config) {
		c.Units = 6
		c.LeaseTTL = time.Second
		c.Reshard = true
	})
	defer co.Close()
	defer j.Close()

	ts := httptest.NewServer(clusterTestHandler(co))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// GC loop, as the daemon runs it.
	gcCtx, gcStop := context.WithCancel(ctx)
	defer gcStop()
	go func() {
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-gcCtx.Done():
				return
			case <-tick.C:
				co.GC()
			}
		}
	}()

	backoff := retry.Policy{Initial: 10 * time.Millisecond, Max: 200 * time.Millisecond}
	workerCfg := func(name string) WorkerConfig {
		return WorkerConfig{
			Coordinator: ts.URL, Name: name, Parallelism: 2,
			UploadBatch: 2, IdlePoll: 20 * time.Millisecond,
			Backoff: backoff, Logf: t.Logf,
		}
	}

	// The doomed worker dies as soon as it has claimed a lease (its
	// heartbeats stop mid-unit, exactly like kill -9).
	doomedCtx, kill := context.WithCancel(ctx)
	var fleet sync.WaitGroup
	fleet.Add(1)
	go func() {
		defer fleet.Done()
		cfg := workerCfg("doomed")
		cfg.Logf = func(format string, args ...any) {
			t.Logf(format, args...)
			if strings.Contains(format, "leased unit") {
				kill()
			}
		}
		RunWorker(doomedCtx, cfg)
	}()

	for i := 0; i < 2; i++ {
		fleet.Add(1)
		go func(i int) {
			defer fleet.Done()
			RunWorker(ctx, workerCfg(fmt.Sprintf("w%d", i)))
		}(i)
	}

	select {
	case <-co.Done():
	case <-ctx.Done():
		t.Fatalf("campaign did not complete: %+v", co.Snapshot())
	}
	cancel()
	fleet.Wait()

	ref, err := exp.Run(context.Background(), s, exp.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, ref.Instances, j.Instances())

	// The doomed worker's lease must have expired and requeued (unless
	// it died before winning a single claim race, which the kill-on-
	// grant hook rules out).
	st := co.Snapshot()
	if st.Expired == 0 || st.Requeued == 0 {
		t.Fatalf("no lease expired despite the killed worker: %+v", st)
	}
}

// fuzzRecord decodes one upload record from two fuzz bytes: a coordinate
// of tinySweep's grid with one of eight outcomes, so that batches hit
// duplicates and conflicts often, and with one chance in four a single
// field moved off the grid. It reports whether the record is a
// coordinate of the campaign.
func fuzzRecord(b0, b1 byte) (Record, bool) {
	rec := Record{
		Model:     "markov",
		Ncom:      5,
		Wmin:      1 + int(b1>>1&1),
		Scenario:  int(b1 >> 2 & 1),
		Trial:     int(b1 >> 3 & 1),
		Heuristic: []string{"IE", "RANDOM"}[b1&1],
		Failed:    b1>>4&1 == 1,
		Makespan:  100 * int64(b1>>5),
	}
	switch b0 % 32 {
	case 0:
		rec.Model = "" // the implicit default model, which uploads must name
	case 1:
		rec.Model = "semimarkov"
	case 2:
		rec.Heuristic = "Y-IE"
	case 3:
		rec.Ncom = 6
	case 4:
		rec.Wmin = 3
	case 5:
		rec.Scenario = -1
	case 6:
		rec.Scenario = 2
	case 7:
		rec.Trial = 2
	default:
		return rec, true
	}
	return rec, false
}

// FuzzClusterIngest feeds arbitrary upload batches to Coordinator.Ingest
// and checks it against a model of the journal, in which a key's first
// record wins. No batch panics; a batch holding a record off the grid
// is refused and writes nothing; a conflict or a duplicate never changes
// the journal file or its recorded results; Accepted, Duplicates and
// Conflicts match the model, and Accepted is the change in DoneCount.
// Once every coordinate is journaled the campaign ends and further
// batches write nothing.
func FuzzClusterIngest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 9, 0x00, 9, 0x01})
	f.Add([]byte{1, 9, 0x20, 1, 9, 0x20, 1, 9, 0x40})
	f.Add([]byte{3, 9, 0x02, 3, 0x04, 9, 0x06, 0, 1, 9, 0x02})
	f.Add([]byte{4, 9, 0, 9, 1, 9, 2, 9, 3, 4, 9, 4, 9, 5, 9, 6, 9, 7,
		4, 9, 8, 9, 9, 9, 10, 9, 11, 4, 9, 12, 9, 13, 9, 14, 9, 15, 1, 9, 0})
	s := tinySweep([]string{"IE", "RANDOM"})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		co, j := testCoordinator(t, dir, s, func(c *Config) { c.Logf = func(string, ...any) {} })
		defer co.Close()
		defer j.Close()
		model := map[exp.Key]exp.InstanceResult{}
		for len(data) > 0 {
			n := int(data[0] % 5)
			data = data[1:]
			var batch []Record
			valid := true
			for ; n > 0 && len(data) >= 2; n-- {
				rec, ok := fuzzRecord(data[0], data[1])
				batch, valid, data = append(batch, rec), valid && ok, data[2:]
			}
			ended := false
			select {
			case <-co.Done():
				ended = true
			default:
			}
			before, err := os.ReadFile(j.Path())
			if err != nil {
				t.Fatal(err)
			}
			count := j.DoneCount()
			resp, err := co.Ingest("fuzz", batch)
			after, rerr := os.ReadFile(j.Path())
			if rerr != nil {
				t.Fatal(rerr)
			}
			switch {
			case ended:
				if err != nil || resp != (UploadResponse{}) || !bytes.Equal(after, before) {
					t.Fatalf("batch %+v after the campaign ended: %+v, %v, file changed %v", batch, resp, err, !bytes.Equal(after, before))
				}
				continue
			case !valid:
				if err == nil || !bytes.Equal(after, before) || j.DoneCount() != count {
					t.Fatalf("batch %+v with a record off the grid: err %v, file changed %v, DoneCount %d -> %d",
						batch, err, !bytes.Equal(after, before), count, j.DoneCount())
				}
				continue
			case err != nil:
				t.Fatalf("batch %+v: %v", batch, err)
			}
			var want UploadResponse
			for _, rec := range batch {
				inst := rec.Instance()
				prev, ok := model[inst.Key()]
				switch {
				case !ok:
					model[inst.Key()] = inst
					want.Accepted++
				case prev == inst:
					want.Duplicates++
				default:
					want.Conflicts++
				}
			}
			want.LeaseLive = resp.LeaseLive
			if resp != want {
				t.Fatalf("batch %+v: response %+v, want %+v", batch, resp, want)
			}
			if got := j.DoneCount() - count; got != resp.Accepted {
				t.Fatalf("batch %+v: DoneCount rose by %d, Accepted %d", batch, got, resp.Accepted)
			}
			if !bytes.HasPrefix(after, before) || (resp.Accepted == 0) != bytes.Equal(after, before) {
				t.Fatalf("batch %+v (%+v): the journal file changed other than by appending the accepted records", batch, resp)
			}
			for k, inst := range model {
				if got, ok := j.Done(k); !ok || got != inst {
					t.Fatalf("batch %+v: journal records %+v for %+v, want the first upload %+v", batch, got, k, inst)
				}
			}
		}
	})
}

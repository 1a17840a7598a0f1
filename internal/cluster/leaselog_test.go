package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tightsched/internal/exp"
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

// leaseTable is a coordinator's lease table without the lease deadlines,
// which a restart re-arms.
type leaseTable struct {
	Units  map[exp.Shard]unit
	Leases map[string]lease
	Avail  []exp.Shard
	Seq    int
}

func tableOf(co *Coordinator) leaseTable {
	tb := leaseTable{Units: map[exp.Shard]unit{}, Leases: map[string]lease{},
		Avail: append([]exp.Shard(nil), co.avail...), Seq: co.seq}
	for sh, u := range co.units {
		tb.Units[sh] = *u
	}
	for id, l := range co.leases {
		l := *l
		l.deadline = time.Time{}
		tb.Leases[id] = l
	}
	return tb
}

// replayed rebuilds the coordinator's lease table from a copy of its
// lease log through resume, the restart path.
func replayed(t *testing.T, co *Coordinator) leaseTable {
	t.Helper()
	data, err := os.ReadFile(co.cfg.StatePath)
	if err != nil {
		t.Fatal(err)
	}
	r := &Coordinator{cfg: co.cfg, spec: co.spec, coords: co.coords}
	r.cfg.StatePath = filepath.Join(t.TempDir(), "c.leases")
	r.cfg.Logf = func(string, ...any) {}
	if err := os.WriteFile(r.cfg.StatePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.resume(); err != nil {
		t.Fatalf("replay: %v", err)
	}
	defer r.Close()
	return tableOf(r)
}

// checkLeaseTable checks the lease table's structure: every unit is
// keyed by its shard, leased units and live leases match one to one,
// the claim queue holds each available unit exactly once and nothing
// else, and the units partition the campaign's coordinates.
func checkLeaseTable(t *testing.T, co *Coordinator) {
	t.Helper()
	queued := map[exp.Shard]int{}
	for _, sh := range co.avail {
		queued[sh]++
	}
	leased, available := 0, 0
	for sh, u := range co.units {
		switch {
		case u.shard != sh:
			t.Fatalf("unit %s keyed as %s", u.shard, sh)
		case u.state == unitLeased:
			leased++
			if l := co.leases[u.leaseID]; l == nil || l.id != u.leaseID || l.unit != sh {
				t.Fatalf("leased unit %s names lease %q, which is %+v", sh, u.leaseID, l)
			}
		case u.leaseID != "":
			t.Fatalf("unit %s in state %d holds lease %q", sh, u.state, u.leaseID)
		case u.state == unitAvailable:
			available++
			if queued[sh] != 1 {
				t.Fatalf("available unit %s queued %d times in %v", sh, queued[sh], co.avail)
			}
		}
	}
	if leased != len(co.leases) || available != len(co.avail) {
		t.Fatalf("%d leased units, %d leases; %d available units, queue %v", leased, len(co.leases), available, co.avail)
	}
	for idx := range co.coords {
		n := 0
		for sh := range co.units {
			if sh.Covers(idx) {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("coordinate %d covered by %d units", idx, n)
		}
	}
}

// TestLeaseReplayMatchesLive drives a coordinator through claims,
// partial uploads, GC expiry with resharding off and on, a Complete
// without coverage, a unit the journal covers while it waits in the
// queue, a completion and an expiry over a covered unit, and after every
// step replays the lease log into a fresh table: units, leases (but for
// deadlines), claim-queue order and lease sequence must equal the live
// coordinator's. A log that grants under a lease id still live is
// refused on restart.
func TestLeaseReplayMatchesLive(t *testing.T) {
	s := tinySweep([]string{"IE", "RANDOM"})
	dir := t.TempDir()
	clock := newFakeClock()
	co, j := testCoordinator(t, dir, s, func(c *Config) { c.Now = clock.Now })
	defer j.Close()
	defer co.Close()
	check := func(step string) {
		t.Helper()
		checkLeaseTable(t, co)
		if got, want := replayed(t, co), tableOf(co); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: replayed table\n%+v\nlive table\n%+v", step, got, want)
		}
	}
	claim := func(worker, want string) *LeaseGrant {
		t.Helper()
		g, err := co.Claim(worker)
		if err != nil || g == nil || g.Unit != want {
			t.Fatalf("claim by %s: %+v, %v; want unit %s", worker, g, err, want)
		}
		return g
	}
	ingest := func(lease string, recs []exp.SweepRecord) {
		t.Helper()
		if _, err := co.Ingest(lease, recs); err != nil {
			t.Fatal(err)
		}
	}
	gc := func(want int) {
		t.Helper()
		if n, err := co.GC(); err != nil || n != want {
			t.Fatalf("GC expired %d, %v; want %d", n, err, want)
		}
	}
	check("start")

	g1, g2 := claim("w1", "0/4"), claim("w2", "1/4")
	check("two claims")
	recs0 := unitRecords(t, s, "0/4")
	ingest(g1.Lease, recs0[:len(recs0)/2])
	check("partial upload")

	// Expiry without resharding queues 0/4 behind 2/4 and 3/4.
	clock.Advance(6 * time.Second)
	if _, err := co.Heartbeat(g2.Lease); err != nil {
		t.Fatal(err)
	}
	clock.Advance(5 * time.Second)
	gc(1)
	if want := []exp.Shard{{Index: 2, Count: 4}, {Index: 3, Count: 4}, {Index: 0, Count: 4}}; !reflect.DeepEqual(co.avail, want) {
		t.Fatalf("queue after expiry %v, want %v", co.avail, want)
	}
	check("expiry, resharding off")

	claim("w3", "2/4")
	check("claim after expiry")
	if err := co.Complete(g2.Lease); !errors.Is(err, ErrUnitIncomplete) {
		t.Fatalf("Complete without coverage: %v", err)
	}
	check("complete without coverage")

	// Expiry with resharding replaces 2/4 with 2/8 and 6/8.
	co.cfg.Reshard = true
	clock.Advance(11 * time.Second)
	gc(1)
	check("expiry, resharding on")

	// The dead lease's upload covers 0/4 while it waits in the queue:
	// the claim that reaches it finishes it and leases the next unit.
	ingest(g1.Lease, recs0[len(recs0)/2:])
	check("queued unit covered")
	g4 := claim("w4", "3/4")
	g5 := claim("w5", "1/4")
	if co.units[exp.Shard{Index: 0, Count: 4}].state != unitDone {
		t.Fatal("the covered unit 0/4 was not finished by the claim")
	}
	check("claim past a covered unit")

	ingest(g4.Lease, unitRecords(t, s, "3/4"))
	if err := co.Complete(g4.Lease); err != nil {
		t.Fatal(err)
	}
	check("complete")

	// A lease whose unit the journal covers finishes on expiry.
	ingest(g5.Lease, unitRecords(t, s, "1/4"))
	clock.Advance(11 * time.Second)
	gc(1)
	check("expiry over a covered unit")

	t.Run("duplicate lease id", func(t *testing.T) {
		g := claim("w6", "2/8")
		data, err := os.ReadFile(co.cfg.StatePath)
		if err != nil {
			t.Fatal(err)
		}
		// A second grant under the live lease: replaying it would strand
		// 2/8 leased under a lease that names 6/8.
		dup := fmt.Sprintf(`{"ev":"grant","unit":"6/8","lease":%q,"worker":"w7"}`+"\n", g.Lease)
		dir := t.TempDir()
		path := filepath.Join(dir, "c.leases")
		if err := os.WriteFile(path, append(data, dup...), 0o644); err != nil {
			t.Fatal(err)
		}
		j2, err := exp.CreateJournal(filepath.Join(dir, "c.journal"), s, exp.Shard{})
		if err != nil {
			t.Fatal(err)
		}
		defer j2.Close()
		_, err = Start(Config{Campaign: "ctest", Sweep: s, Units: 4, Journal: j2, StatePath: path, Now: clock.Now})
		if err == nil || !strings.Contains(err.Error(), "cluster: lease log "+path+": grant of 6/8") {
			t.Fatalf("Start over a log that reuses live lease %s: %v", g.Lease, err)
		}
	})
}

// TestRestartRestoresClaimQueue: a restarted coordinator grants units in
// the order the killed one would have, including a unit that expired
// and was requeued behind the units never leased.
func TestRestartRestoresClaimQueue(t *testing.T) {
	s := tinySweep([]string{"IE"})
	dir := t.TempDir()
	clock := newFakeClock()
	co, j := testCoordinator(t, dir, s, func(c *Config) { c.Now = clock.Now })
	for _, w := range []string{"w1", "w2"} {
		if g, err := co.Claim(w); err != nil || g == nil {
			t.Fatalf("claim: %+v, %v", g, err)
		}
	}
	clock.Advance(6 * time.Second)
	if _, err := co.Heartbeat("l2"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(5 * time.Second)
	if n, err := co.GC(); err != nil || n != 1 {
		t.Fatalf("GC expired %d, %v", n, err)
	}
	co.Close()
	j.Close()

	j2, err := exp.OpenJournal(filepath.Join(dir, "c.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	co2, err := Start(Config{Campaign: "ctest", Sweep: s, Units: 4, LeaseTTL: 10 * time.Second,
		Journal: j2, StatePath: filepath.Join(dir, "c.leases"), Logf: t.Logf, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	var units []string
	for range 3 {
		g, err := co2.Claim("w3")
		if err != nil || g == nil {
			t.Fatalf("claim after restart: %+v, %v", g, err)
		}
		units = append(units, g.Unit)
	}
	if want := []string{"2/4", "3/4", "0/4"}; !reflect.DeepEqual(units, want) {
		t.Fatalf("claim order after restart %v, want %v", units, want)
	}
}

// fuzzLeaseUnits are the units fuzz-built lease-log events name: every
// shard of width 2 to 16 (the header's two units and all their possible
// descendants, and more) and two that do not parse.
var fuzzLeaseUnits = func() []string {
	var units []string
	for n := 2; n <= 16; n *= 2 {
		for i := range n {
			units = append(units, fmt.Sprintf("%d/%d", i, n))
		}
	}
	return append(units, "2/1", "x")
}()

// fuzzLeaseEvents turns fuzz bytes into lease-log events, two bytes an
// event: the first picks the kind (grant, requeue, split requeue, done,
// end or an unknown kind), a lease id l1–l7 or none, and an offset; the
// second picks the unit.
func fuzzLeaseEvents(data []byte) []stateEvent {
	var evs []stateEvent
	for ; len(data) >= 2; data = data[2:] {
		ev := stateEvent{Unit: fuzzLeaseUnits[int(data[1])%len(fuzzLeaseUnits)], Worker: "w", Offset: int(data[0] >> 6)}
		switch data[0] % 8 {
		case 0, 1:
			ev.Ev = "grant"
		case 2:
			ev.Ev = "requeue"
		case 3:
			ev.Ev, ev.Split = "requeue", true
		case 4, 5:
			ev.Ev = "done"
		case 6:
			ev.Ev, ev.State = "end", "cancelled"
		default:
			ev.Ev = "bogus"
		}
		if id := data[0] >> 3 & 7; id > 0 {
			ev.Lease = fmt.Sprintf("l%d", id)
		}
		evs = append(evs, ev)
	}
	return evs
}

// FuzzLeaseReplay starts a coordinator over a lease log made of the
// leaseLog fixture's header and fuzz-built events. Start never panics:
// it refuses the log, or it resumes into a lease table whose leased
// units and live leases match one to one, whose claim queue holds
// exactly the available units, and whose units partition the campaign's
// coordinates.
func FuzzLeaseReplay(f *testing.F) {
	fixture := leaseLog(f)
	header := fixture[:bytes.IndexByte(fixture, '\n')+1]
	f.Add([]byte{})
	// The fixture's own events: grant 0/2 as l1, split requeue, grant
	// 1/2 as l2 and 0/4 as l3.
	f.Add([]byte{0x08, 0, 0x0b, 0, 0x10, 1, 0x18, 2})
	// Requeue, regrant under a fresh id, finish, and grant a finished unit.
	f.Add([]byte{0x08, 1, 0x0a, 1, 0x10, 1, 0x14, 1, 0x18, 1})
	// A second grant under the live lease l1.
	f.Add([]byte{0x08, 0, 0x08, 1})
	s := tinySweep([]string{"IE"})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		log := bytes.Clone(header)
		for _, ev := range fuzzLeaseEvents(data) {
			b, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			log = append(append(log, b...), '\n')
		}
		path := filepath.Join(dir, "c.leases")
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := exp.CreateJournal(filepath.Join(dir, "c.journal"), s, exp.Shard{})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		co, err := Start(Config{Campaign: "ctest", Sweep: s, Units: 2, Journal: j, StatePath: path})
		if err != nil {
			if !strings.HasPrefix(err.Error(), "cluster: ") {
				t.Fatalf("refusal without the package prefix: %v", err)
			}
			return
		}
		defer co.Close()
		checkLeaseTable(t, co)
	})
}

// TestGCExpiresInGrantOrder: leases that expire in one GC are requeued in
// the order they were granted, so identical runs build the same claim
// queue (and lease log).
func TestGCExpiresInGrantOrder(t *testing.T) {
	want := []exp.Shard{{Index: 3, Count: 4}, {Index: 0, Count: 4}, {Index: 1, Count: 4}, {Index: 2, Count: 4}}
	for run := range 20 {
		clock := newFakeClock()
		co, j := testCoordinator(t, t.TempDir(), tinySweep([]string{"IE"}), func(c *Config) {
			c.Now = clock.Now
			c.Logf = func(string, ...any) {}
		})
		for _, w := range []string{"w1", "w2", "w3"} {
			if g, err := co.Claim(w); err != nil || g == nil {
				t.Fatalf("claim: %+v, %v", g, err)
			}
		}
		clock.Advance(11 * time.Second)
		if n, err := co.GC(); err != nil || n != 3 {
			t.Fatalf("GC expired %d, %v", n, err)
		}
		if !reflect.DeepEqual(co.avail, want) {
			t.Fatalf("run %d: claim queue %v after GC, want %v", run, co.avail, want)
		}
		co.Close()
		j.Close()
	}
}

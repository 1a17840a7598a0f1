package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tightsched/internal/exp"
	"tightsched/internal/retry"
)

// WorkerConfig shapes one worker process's claim/run/upload loop.
type WorkerConfig struct {
	// Coordinator is the daemon's base URL (e.g. http://127.0.0.1:8080).
	Coordinator string
	// Name identifies this worker in lease bookkeeping (default
	// host:pid).
	Name string
	// Parallelism bounds the simulation pool per leased unit (default
	// GOMAXPROCS).
	Parallelism int
	// UploadBatch is how many completed instances accumulate before a
	// result upload (default 64). Smaller batches lose less to a worker
	// crash; larger batches make fewer requests.
	UploadBatch int
	// Backoff shapes retries of claims, uploads and completions while
	// the coordinator is unreachable. The zero value retries forever
	// with the retry package's defaults — the elastic choice: a
	// coordinator restart costs reconnection time, never the worker.
	Backoff retry.Policy
	// IdlePoll is the pause between claim attempts when no unit is
	// available (default 500ms).
	IdlePoll time.Duration
	// ExitAfterIdle, when positive, makes RunWorker return nil after
	// finding no work for that long continuously — how scripted fleets
	// drain when the campaign ends. Zero polls forever.
	ExitAfterIdle time.Duration
	// Client is the HTTP client (default http.DefaultClient).
	Client *http.Client
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

func (cfg WorkerConfig) withDefaults() WorkerConfig {
	if cfg.Name == "" {
		host, _ := os.Hostname()
		cfg.Name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	if cfg.UploadBatch <= 0 {
		cfg.UploadBatch = 64
	}
	if cfg.IdlePoll <= 0 {
		cfg.IdlePoll = 500 * time.Millisecond
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return cfg
}

// RunWorker runs the worker loop: claim a lease, simulate its unit,
// stream results back in batches, complete, repeat. It returns when ctx
// is cancelled, or nil after ExitAfterIdle of continuous idleness. A
// lost lease (expired while computing, coordinator restarted and GC'd
// it) abandons the unit and claims fresh work — the campaign-level
// dedup makes the partial upload harmless.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	cfg = cfg.withDefaults()
	var idleSince time.Time
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		grant, err := cfg.claim(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return err
			}
			cfg.Logf("worker %s: claim: %v", cfg.Name, err)
		}
		if grant == nil {
			now := time.Now()
			if idleSince.IsZero() {
				idleSince = now
			} else if cfg.ExitAfterIdle > 0 && now.Sub(idleSince) >= cfg.ExitAfterIdle {
				cfg.Logf("worker %s: idle for %s; exiting", cfg.Name, cfg.ExitAfterIdle)
				return nil
			}
			if err := sleepCtx(ctx, cfg.IdlePoll); err != nil {
				return err
			}
			continue
		}
		idleSince = time.Time{}
		cfg.Logf("worker %s: leased unit %s of campaign %s (lease %s)",
			cfg.Name, grant.Unit, grant.Campaign, grant.Lease)
		if err := cfg.runLease(ctx, grant); err != nil {
			if ctx.Err() != nil {
				return err
			}
			// Unit abandoned (lease lost, run error): the coordinator's
			// GC requeues it; this worker moves on.
			cfg.Logf("worker %s: lease %s abandoned: %v", cfg.Name, grant.Lease, err)
		}
	}
}

// claim asks for a lease, retrying transient failures under the backoff
// policy. nil grant with nil error means no unit is available right now.
func (cfg WorkerConfig) claim(ctx context.Context) (*LeaseGrant, error) {
	var grant *LeaseGrant
	err := retry.Do(ctx, cfg.Backoff, func(ctx context.Context) error {
		var g LeaseGrant
		status, err := cfg.post(ctx, cfg.Coordinator+"/v1/cluster/claim", ClaimRequest{Worker: cfg.Name}, &g)
		switch {
		case err != nil:
			return err // transient: network failure or 5xx
		case status == http.StatusNoContent:
			grant = nil
			return retry.Stop(nil)
		default:
			grant = &g
			return retry.Stop(nil)
		}
	})
	return grant, err
}

// leaseSession is the per-lease shared state between the run and its
// heartbeat goroutine.
type leaseSession struct {
	cfg   WorkerConfig
	grant *LeaseGrant
	// gone flips once the coordinator declared the lease dead (410).
	gone atomic.Bool
	// batch accumulates completed instances between uploads (only the
	// sink goroutine touches it).
	batch []exp.SweepRecord
}

var errLeaseLost = errors.New("cluster: lease no longer held")

// runLease simulates one leased unit: a heartbeat goroutine keeps the
// lease alive while the exp worker pool runs the shard, and every
// completed instance streams back through batched uploads.
func (cfg WorkerConfig) runLease(ctx context.Context, grant *LeaseGrant) error {
	sweep, err := grant.Spec.Sweep()
	if err != nil {
		return err
	}
	unit, err := exp.ParseShard(grant.Unit)
	if err != nil {
		return err
	}
	leaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	ses := &leaseSession{cfg: cfg, grant: grant}

	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		ses.heartbeatLoop(leaseCtx, cancel)
	}()
	defer hb.Wait()
	defer cancel()

	_, err = exp.Run(leaseCtx, sweep, exp.RunOptions{
		Shard:            unit,
		Workers:          cfg.Parallelism,
		DiscardInstances: true,
		Sink: func(inst exp.InstanceResult) error {
			ses.batch = append(ses.batch, exp.SweepRecordOf(inst))
			if len(ses.batch) >= cfg.UploadBatch {
				return ses.flush(leaseCtx)
			}
			return nil
		},
	})
	if err != nil {
		if ses.gone.Load() {
			return fmt.Errorf("%w (unit %s)", errLeaseLost, grant.Unit)
		}
		return err
	}
	if err := ses.flush(leaseCtx); err != nil {
		return err
	}
	return ses.complete(leaseCtx)
}

// heartbeatLoop renews the lease at a third of its TTL until the lease
// context ends. Transient failures are logged and retried at the next
// tick — the coordinator re-arms resumed leases with a fresh TTL, so a
// restart inside one TTL costs nothing. A 410 means the lease is gone:
// the loop cancels the run.
func (ses *leaseSession) heartbeatLoop(ctx context.Context, cancel context.CancelFunc) {
	ttl := time.Duration(ses.grant.TTLMillis) * time.Millisecond
	interval := ttl / 3
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		var resp HeartbeatResponse
		status, err := ses.cfg.post(ctx, ses.leaseURL("heartbeat"), struct{}{}, &resp)
		switch {
		case err != nil:
			if ctx.Err() == nil {
				ses.cfg.Logf("worker %s: heartbeat %s: %v (will retry)", ses.cfg.Name, ses.grant.Lease, err)
			}
		case status == http.StatusGone:
			ses.cfg.Logf("worker %s: lease %s gone; abandoning unit %s", ses.cfg.Name, ses.grant.Lease, ses.grant.Unit)
			ses.gone.Store(true)
			cancel()
			return
		}
	}
}

// flush uploads the accumulated batch, retrying transient failures. A
// dead lease stops the unit (errLeaseLost) — the upload itself was
// still accepted and journaled, so no work is wasted.
func (ses *leaseSession) flush(ctx context.Context) error {
	if len(ses.batch) == 0 {
		return nil
	}
	req := UploadRequest{Instances: ses.batch}
	var resp UploadResponse
	err := retry.Do(ctx, ses.cfg.Backoff, func(ctx context.Context) error {
		status, err := ses.cfg.post(ctx, ses.leaseURL("results"), req, &resp)
		switch {
		case err != nil:
			return err
		case status == http.StatusGone:
			return retry.Stop(errLeaseLost)
		default:
			return retry.Stop(nil)
		}
	})
	if err != nil {
		return err
	}
	ses.batch = ses.batch[:0]
	if resp.Conflicts > 0 {
		ses.cfg.Logf("worker %s: upload for lease %s had %d conflicting instances (coordinator kept its records)",
			ses.cfg.Name, ses.grant.Lease, resp.Conflicts)
	}
	if !resp.LeaseLive {
		ses.gone.Store(true)
		return errLeaseLost
	}
	return nil
}

// complete reports the unit finished. 410 (lease expired meanwhile) and
// 409 (coverage gap — the coordinator requeued the unit) both mean the
// worker just moves on.
func (ses *leaseSession) complete(ctx context.Context) error {
	return retry.Do(ctx, ses.cfg.Backoff, func(ctx context.Context) error {
		var resp CompleteResponse
		status, err := ses.cfg.post(ctx, ses.leaseURL("complete"), struct{}{}, &resp)
		switch {
		case err != nil:
			return err
		case status == http.StatusGone:
			return retry.Stop(fmt.Errorf("%w at completion", errLeaseLost))
		case status == http.StatusConflict:
			return retry.Stop(fmt.Errorf("%w: coordinator requeued it", ErrUnitIncomplete))
		default:
			ses.cfg.Logf("worker %s: unit %s complete", ses.cfg.Name, ses.grant.Unit)
			return retry.Stop(nil)
		}
	})
}

func (ses *leaseSession) leaseURL(op string) string {
	return fmt.Sprintf("%s/v1/campaigns/%s/cluster/leases/%s/%s",
		ses.cfg.Coordinator, ses.grant.Campaign, ses.grant.Lease, op)
}

// post sends one JSON request and decodes the response into out (when
// non-nil and the body is JSON). It returns a plain (retryable) error
// for network failures and 5xx responses; 4xx responses return their
// status code with a nil error so callers can map lease semantics.
func (cfg WorkerConfig) post(ctx context.Context, url string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, retry.Stop(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return 0, retry.Stop(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 10<<20))
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 500 {
		return resp.StatusCode, fmt.Errorf("cluster: %s: %s: %s", url, resp.Status, firstLine(data))
	}
	if out != nil && resp.StatusCode >= 200 && resp.StatusCode < 300 && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("cluster: %s: bad response body: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

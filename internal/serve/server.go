package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tightsched"
)

// Config sizes a Server.
type Config struct {
	// DataDir holds campaign journals (<id>.journal). Created if absent.
	DataDir string
	// Runners bounds concurrently executing campaigns (default 1):
	// campaigns beyond the bound queue in StatePending. Each campaign's
	// own worker pool parallelizes inside its runner slot.
	Runners int
	// Workers is the default per-campaign worker count applied when a
	// spec leaves run.workers at 0 (0: GOMAXPROCS).
	Workers int
	// MaxSpecBytes bounds a submitted spec document (default 1 MiB).
	MaxSpecBytes int64
	// Heartbeat is the SSE keep-alive comment interval (default 15s).
	Heartbeat time.Duration
	// Logf, when set, receives operational log lines (cluster
	// coordinator activity, recovery). Nil discards them.
	Logf func(format string, args ...any)
}

// Server is the campaign service: it owns the campaign table, the
// bounded runner pool and the metrics counters behind the HTTP API that
// cmd/tightschedd serves.
type Server struct {
	cfg Config
	// slots is the runner pool: one token per concurrently running
	// campaign.
	slots chan struct{}

	// baseCtx parents every campaign; Close cancels it.
	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu        sync.Mutex
	campaigns map[string]*Campaign
	order     []string // submission order, for stable listings
	seq       int
	closed    bool

	metrics serverMetrics
}

// serverMetrics are the daemon-lifetime counters behind GET /metrics.
// Campaign-state gauges are derived from the campaign table on scrape.
type serverMetrics struct {
	campaignsSubmitted atomic.Uint64
	instancesCompleted atomic.Uint64
	memoHits           atomic.Uint64
	memoMisses         atomic.Uint64
	decisionHits       atomic.Uint64
	decisionMisses     atomic.Uint64
	candidatesScored   atomic.Uint64
	candidatesReused   atomic.Uint64
	valueMemoHits      atomic.Uint64
	valueMemoLookups   atomic.Uint64
	sseSubscribed      atomic.Uint64
	sseDropped         atomic.Uint64
	// Online grid live telemetry, summed across running grid campaigns:
	// admission-queue depth, running applications, and deadline misses.
	gridQueueDepth     atomic.Int64
	gridRunning        atomic.Int64
	gridDeadlineMisses atomic.Uint64
}

// gridTelemetry adapts the daemon metrics to the online engine's
// telemetry hook (tightsched.GridTelemetry): the grid event loops call
// these from inside running simulations.
type gridTelemetry struct{ m *serverMetrics }

func (t gridTelemetry) GridQueued(delta int)  { t.m.gridQueueDepth.Add(int64(delta)) }
func (t gridTelemetry) GridRunning(delta int) { t.m.gridRunning.Add(int64(delta)) }
func (t gridTelemetry) GridDeadlineMiss()     { t.m.gridDeadlineMisses.Add(1) }

// NewServer builds a Server and its data directory.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Runners <= 0 {
		cfg.Runners = 1
	}
	if cfg.MaxSpecBytes <= 0 {
		cfg.MaxSpecBytes = 1 << 20
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 15 * time.Second
	}
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: data dir: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:       cfg,
		slots:     make(chan struct{}, cfg.Runners),
		baseCtx:   ctx,
		stop:      cancel,
		campaigns: map[string]*Campaign{},
	}, nil
}

// logf writes one operational log line through Config.Logf.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Close stops the server: every pending and running campaign is
// cancelled (journals stay flushed and resumable) and Close blocks until
// all runners have exited. It is the daemon's SIGTERM path, after the
// HTTP listener has drained.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.stop()
	s.wg.Wait()
}

// Handler returns the HTTP API:
//
//	POST   /v1/campaigns              submit a spec (YAML or JSON) → 202 + status
//	GET    /v1/campaigns              list campaign statuses
//	GET    /v1/campaigns/{id}         one campaign's status
//	DELETE /v1/campaigns/{id}         cancel (journal stays resumable)
//	GET    /v1/campaigns/{id}/events  live SSE event stream
//	GET    /v1/campaigns/{id}/tables/{table}   Table I/II/III/IV artifact
//	GET    /v1/heuristics             registered heuristic names
//	GET    /v1/models                 registered availability models
//	GET    /healthz                   liveness probe
//	GET    /metrics                   Prometheus-style exposition
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/campaigns/{id}/tables/{table}", s.handleTable)
	mux.HandleFunc("POST /v1/cluster/claim", s.handleClusterClaim)
	mux.HandleFunc("POST /v1/campaigns/{id}/cluster/leases/{lease}/heartbeat", s.handleLeaseHeartbeat)
	mux.HandleFunc("POST /v1/campaigns/{id}/cluster/leases/{lease}/results", s.handleLeaseResults)
	mux.HandleFunc("POST /v1/campaigns/{id}/cluster/leases/{lease}/complete", s.handleLeaseComplete)
	mux.HandleFunc("GET /v1/heuristics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"heuristics": tightsched.Heuristics()})
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"models": tightsched.AvailabilityModels()})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// handleSubmit validates the spec and enqueues the campaign. Every spec
// defect is a structured 400 naming the offending path; a valid spec is
// answered 202 with the initial status (including the campaign ID and
// journal path).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "", "reading request body: "+err.Error())
		return
	}
	if int64(len(body)) > s.cfg.MaxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "",
			fmt.Sprintf("spec exceeds %d bytes", s.cfg.MaxSpecBytes))
		return
	}
	spec, serr := DecodeSpec(body, r.Header.Get("Content-Type"))
	if serr != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": serr})
		return
	}
	if spec.Sweep.Workers == 0 && s.cfg.Workers > 0 {
		spec.Sweep.Workers = s.cfg.Workers
	}
	if spec.Grid != nil && spec.Grid.Workers == 0 && s.cfg.Workers > 0 {
		spec.Grid.Workers = s.cfg.Workers
	}
	if spec.Cluster != nil && s.cfg.DataDir == "" {
		writeError(w, http.StatusBadRequest, "run.cluster",
			"cluster execution needs a durable journal, but this daemon has no data directory")
		return
	}

	now := time.Now().UTC()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "", "server is shutting down")
		return
	}
	s.seq++
	id := fmt.Sprintf("c%s-%04d", now.Format("20060102-150405"), s.seq)
	journalPath := ""
	if spec.Journal && s.cfg.DataDir != "" {
		journalPath = filepath.Join(s.cfg.DataDir, id+".journal")
	}
	c, ctx := s.addCampaign(id, spec, now, journalPath)
	s.metrics.campaignsSubmitted.Add(1)
	s.mu.Unlock()

	switch {
	case spec.Cluster != nil:
		go s.runClusterCampaign(ctx, c)
	case spec.Grid != nil:
		// Progress feeds the SSE broadcaster; live engine telemetry
		// feeds the daemon's tightsched_grid_* metric families.
		go s.runCampaign(ctx, c, func(opts ...tightsched.Option) (*tightsched.SweepResult, error) {
			return tightsched.NewSession().RunOnline(ctx, *spec.Grid, append(opts,
				tightsched.WithProgress(func(done, total int) {
					observer{c}.OnProgress(tightsched.Progress{Completed: done, Total: total})
				}),
				tightsched.WithGridTelemetry(gridTelemetry{&s.metrics}))...)
		})
	default:
		go s.runCampaign(ctx, c, func(opts ...tightsched.Option) (*tightsched.SweepResult, error) {
			opts = append(opts, tightsched.WithObserver(metricsObserver{observer{c}, &s.metrics}))
			if spec.Shard.Count > 1 {
				opts = append(opts, tightsched.WithShard(spec.Shard))
			}
			return tightsched.NewSession().RunSweep(ctx, spec.Sweep, opts...)
		})
	}
	writeJSON(w, http.StatusAccepted, c.Status(time.Now().UTC()))
}

// addCampaign registers a pending campaign and returns it with the
// context its runner runs under; the caller starts the runner. Caller
// holds s.mu.
func (s *Server) addCampaign(id string, spec *Spec, submitted time.Time, journalPath string) (*Campaign, context.Context) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	c := &Campaign{
		ID:          id,
		Name:        spec.Name,
		Spec:        spec,
		Submitted:   submitted,
		cancel:      cancel,
		events:      tightsched.NewSweepBroadcaster(0),
		done:        make(chan struct{}),
		state:       StatePending,
		journalPath: journalPath,
	}
	s.campaigns[id] = c
	s.order = append(s.order, id)
	s.wg.Add(1)
	return c, ctx
}

// runCampaign executes one in-process campaign — a sweep or an online
// grid — on the runner pool. It waits for a runner slot (cancellation
// while pending, by DELETE or shutdown, resolves the campaign without
// running anything), creates the campaign's journal when it keeps one,
// makes the kind's session call through run, and closes the journal
// before recording the outcome, so a cancelled campaign leaves a
// flushed, resumable file.
func (s *Server) runCampaign(ctx context.Context, c *Campaign, run func(opts ...tightsched.Option) (*tightsched.SweepResult, error)) {
	defer s.wg.Done()
	select {
	case s.slots <- struct{}{}:
		defer func() { <-s.slots }()
	case <-ctx.Done():
		c.finish(ctx, ctx.Err(), nil, time.Now().UTC())
		return
	}
	if ctx.Err() != nil {
		c.finish(ctx, ctx.Err(), nil, time.Now().UTC())
		return
	}
	c.markRunning(time.Now().UTC())

	var opts []tightsched.Option
	var journal io.Closer
	if c.journalPath != "" {
		var opt tightsched.Option
		var err error
		if journal, opt, err = c.createJournal(); err != nil {
			c.finish(ctx, err, nil, time.Now().UTC())
			return
		}
		opts = append(opts, opt)
	}
	res, err := run(opts...)
	if journal != nil {
		if cerr := journal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	c.finish(ctx, err, res, time.Now().UTC())
}

// metricsObserver layers the daemon-lifetime counters on top of the
// campaign's own observer.
type metricsObserver struct {
	observer
	m *serverMetrics
}

func (o metricsObserver) OnInstanceDone(ev tightsched.InstanceDone) {
	if !ev.Replayed {
		o.m.instancesCompleted.Add(1)
	}
	o.observer.OnInstanceDone(ev)
}

func (o metricsObserver) OnPointDone(ev tightsched.PointDone) {
	if ev.Cache != nil {
		o.m.memoHits.Add(ev.Cache.MemoHits)
		o.m.memoMisses.Add(ev.Cache.MemoMisses)
		o.m.decisionHits.Add(ev.Cache.DecisionHits)
		o.m.decisionMisses.Add(ev.Cache.DecisionMisses)
		o.m.candidatesScored.Add(ev.Cache.CandidatesScored)
		o.m.candidatesReused.Add(ev.Cache.CandidatesReused)
		o.m.valueMemoHits.Add(ev.Cache.ValueMemoHits)
		o.m.valueMemoLookups.Add(ev.Cache.ValueMemoLookups)
	}
	o.observer.OnPointDone(ev)
}

// campaign resolves {id} or writes a 404.
func (s *Server) campaign(w http.ResponseWriter, r *http.Request) *Campaign {
	id := r.PathValue("id")
	s.mu.Lock()
	c := s.campaigns[id]
	s.mu.Unlock()
	if c == nil {
		writeError(w, http.StatusNotFound, "", fmt.Sprintf("no campaign %q", id))
		return nil
	}
	return c
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	now := time.Now().UTC()
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	table := make(map[string]*Campaign, len(s.campaigns))
	for id, c := range s.campaigns {
		table[id] = c
	}
	s.mu.Unlock()
	statuses := make([]Status, 0, len(ids))
	for _, id := range ids {
		statuses = append(statuses, table[id].Status(now))
	}
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": statuses})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if c := s.campaign(w, r); c != nil {
		writeJSON(w, http.StatusOK, c.Status(time.Now().UTC()))
	}
}

// handleCancel stops a campaign. Cancellation is asymptotic — the
// response reports the state observed after the request; poll status (or
// watch the SSE stream's final state event) for the terminal state. The
// journal keeps every completed instance: resuming it completes the
// campaign bit-identically to an uninterrupted run.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(w, r)
	if c == nil {
		return
	}
	if c.State().Terminal() {
		writeJSON(w, http.StatusOK, c.Status(time.Now().UTC()))
		return
	}
	c.Cancel()
	// Give a fast campaign a moment to resolve so small cancels read
	// back terminal immediately; slow ones report their in-flight state.
	select {
	case <-c.Done():
	case <-time.After(200 * time.Millisecond):
	}
	writeJSON(w, http.StatusAccepted, c.Status(time.Now().UTC()))
}

// handleTable serves a finished campaign's Table artifact — byte-for-byte
// the text cmd/tables prints for the same spec (both render through
// tightsched.RenderTableArtifact).
func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(w, r)
	if c == nil {
		return
	}
	table, err := strconv.Atoi(r.PathValue("table"))
	if err != nil || table < 1 || table > 4 {
		writeError(w, http.StatusNotFound, "", fmt.Sprintf("no table %q (tables are 1, 2, 3 and 4)", r.PathValue("table")))
		return
	}
	res := c.Result()
	if res == nil {
		writeError(w, http.StatusConflict, "",
			fmt.Sprintf("campaign %s is %s; tables are available once succeeded", c.ID, c.State()))
		return
	}
	artifact, err := tightsched.RenderTableArtifact(res, table)
	if err != nil {
		writeError(w, http.StatusConflict, "", err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, artifact)
}

// handleEvents streams the campaign over SSE: a "state" snapshot on
// subscribe, then live "instance" / "point" / "progress" events, then a
// final "state" event when the campaign resolves. Subscribing to a
// finished campaign yields the final state immediately. Slow consumers
// are dropped (the campaign is never backpressured); the drop is visible
// as an unclean connection close and in the sse_dropped metric.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(w, r)
	if c == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "", "streaming unsupported by this connection")
		return
	}
	// Subscribe before the snapshot: events arriving between the two are
	// buffered, so the client misses nothing (duplicates resolve by
	// last-write-wins on counters).
	sub := c.events.Subscribe()
	defer sub.Cancel()
	s.metrics.sseSubscribed.Add(1)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	if !writeSSE(w, flusher, "state", c.Status(time.Now().UTC())) {
		return
	}

	heartbeat := time.NewTicker(s.cfg.Heartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				// Broadcaster closed (campaign resolved) or this
				// subscriber lagged out.
				if sub.Lagged() {
					s.metrics.sseDropped.Add(1)
					return
				}
				writeSSE(w, flusher, "state", c.Status(time.Now().UTC()))
				return
			}
			if !writeSSEEvent(w, flusher, ev) {
				return
			}
		case <-c.Done():
			// Drain events already buffered, then emit the final state.
			for {
				ev, ok := <-sub.Events()
				if !ok {
					break
				}
				if !writeSSEEvent(w, flusher, ev) {
					return
				}
			}
			if sub.Lagged() {
				s.metrics.sseDropped.Add(1)
				return
			}
			writeSSE(w, flusher, "state", c.Status(time.Now().UTC()))
			return
		case <-heartbeat.C:
			if _, err := io.WriteString(w, ": keep-alive\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSEEvent renders one campaign event as a named SSE message.
func writeSSEEvent(w io.Writer, flusher http.Flusher, ev tightsched.SweepEvent) bool {
	switch ev := ev.(type) {
	case tightsched.InstanceDone:
		return writeSSE(w, flusher, "instance", map[string]any{
			"model":     ev.Instance.Model,
			"ncom":      ev.Instance.Point.Ncom,
			"wmin":      ev.Instance.Point.Wmin,
			"scenario":  ev.Instance.Point.Scenario,
			"trial":     ev.Instance.Trial,
			"heuristic": ev.Instance.Heuristic,
			"makespan":  ev.Instance.Makespan,
			"failed":    ev.Instance.Failed,
			"replayed":  ev.Replayed,
			"completed": ev.Completed,
			"total":     ev.Total,
		})
	case tightsched.PointDone:
		body := map[string]any{
			"model":           ev.Model,
			"ncom":            ev.Point.Ncom,
			"wmin":            ev.Point.Wmin,
			"scenario":        ev.Point.Scenario,
			"completedPoints": ev.CompletedPoints,
			"totalPoints":     ev.TotalPoints,
		}
		if ev.Cache != nil {
			body["cache"] = ev.Cache
		}
		return writeSSE(w, flusher, "point", body)
	case tightsched.Progress:
		return writeSSE(w, flusher, "progress", map[string]any{
			"completed": ev.Completed,
			"total":     ev.Total,
		})
	default:
		return true
	}
}

// writeSSE emits one SSE message and reports whether the connection is
// still writable.
func writeSSE(w io.Writer, flusher http.Flusher, event string, payload any) bool {
	data, err := json.Marshal(payload)
	if err != nil {
		return false
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
		return false
	}
	flusher.Flush()
	return true
}

// handleMetrics is the Prometheus-style exposition: hand-rendered text
// format (the module takes no dependencies), one family per line group.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	now := time.Now().UTC()
	s.mu.Lock()
	byState := map[State]int{}
	type wall struct {
		id      string
		state   State
		seconds float64
	}
	walls := make([]wall, 0, len(s.order))
	for _, id := range s.order {
		st := s.campaigns[id].Status(now)
		byState[st.State]++
		walls = append(walls, wall{id, st.State, st.WallSeconds})
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# HELP tightsched_campaigns Campaigns by lifecycle state.\n")
	fmt.Fprintf(w, "# TYPE tightsched_campaigns gauge\n")
	for _, st := range []State{StatePending, StateRunning, StateSucceeded, StateFailed, StateCancelled} {
		fmt.Fprintf(w, "tightsched_campaigns{state=%q} %d\n", st, byState[st])
	}
	fmt.Fprintf(w, "# HELP tightsched_campaigns_submitted_total Campaigns accepted since daemon start.\n")
	fmt.Fprintf(w, "# TYPE tightsched_campaigns_submitted_total counter\n")
	fmt.Fprintf(w, "tightsched_campaigns_submitted_total %d\n", s.metrics.campaignsSubmitted.Load())
	fmt.Fprintf(w, "# HELP tightsched_instances_completed_total Simulated campaign instances completed (journal replays excluded).\n")
	fmt.Fprintf(w, "# TYPE tightsched_instances_completed_total counter\n")
	fmt.Fprintf(w, "tightsched_instances_completed_total %d\n", s.metrics.instancesCompleted.Load())
	fmt.Fprintf(w, "# HELP tightsched_cache_lookups_total Batched-cell cache traffic by cache and outcome.\n")
	fmt.Fprintf(w, "# TYPE tightsched_cache_lookups_total counter\n")
	fmt.Fprintf(w, "tightsched_cache_lookups_total{cache=\"memo\",outcome=\"hit\"} %d\n", s.metrics.memoHits.Load())
	fmt.Fprintf(w, "tightsched_cache_lookups_total{cache=\"memo\",outcome=\"miss\"} %d\n", s.metrics.memoMisses.Load())
	fmt.Fprintf(w, "tightsched_cache_lookups_total{cache=\"decision\",outcome=\"hit\"} %d\n", s.metrics.decisionHits.Load())
	fmt.Fprintf(w, "tightsched_cache_lookups_total{cache=\"decision\",outcome=\"miss\"} %d\n", s.metrics.decisionMisses.Load())
	valueHits := s.metrics.valueMemoHits.Load()
	fmt.Fprintf(w, "tightsched_cache_lookups_total{cache=\"values\",outcome=\"hit\"} %d\n", valueHits)
	fmt.Fprintf(w, "tightsched_cache_lookups_total{cache=\"values\",outcome=\"miss\"} %d\n", s.metrics.valueMemoLookups.Load()-valueHits)
	fmt.Fprintf(w, "# HELP tightsched_greedy_candidates_total Candidate evaluations of batched-cell greedy builds: scored (computed or read from the batch's candidate-value memo), or reused from the instance's previous build.\n")
	fmt.Fprintf(w, "# TYPE tightsched_greedy_candidates_total counter\n")
	fmt.Fprintf(w, "tightsched_greedy_candidates_total{outcome=\"scored\"} %d\n", s.metrics.candidatesScored.Load())
	fmt.Fprintf(w, "tightsched_greedy_candidates_total{outcome=\"reused\"} %d\n", s.metrics.candidatesReused.Load())
	fmt.Fprintf(w, "# HELP tightsched_grid_queue_depth Applications waiting for admission across running online grid campaigns.\n")
	fmt.Fprintf(w, "# TYPE tightsched_grid_queue_depth gauge\n")
	fmt.Fprintf(w, "tightsched_grid_queue_depth %d\n", s.metrics.gridQueueDepth.Load())
	fmt.Fprintf(w, "# HELP tightsched_grid_running_apps Applications currently holding processor blocks across running online grid campaigns.\n")
	fmt.Fprintf(w, "# TYPE tightsched_grid_running_apps gauge\n")
	fmt.Fprintf(w, "tightsched_grid_running_apps %d\n", s.metrics.gridRunning.Load())
	fmt.Fprintf(w, "# HELP tightsched_grid_deadline_misses_total Applications finished past their deadline (or never finished) in online grid campaigns.\n")
	fmt.Fprintf(w, "# TYPE tightsched_grid_deadline_misses_total counter\n")
	fmt.Fprintf(w, "tightsched_grid_deadline_misses_total %d\n", s.metrics.gridDeadlineMisses.Load())
	fmt.Fprintf(w, "# HELP tightsched_sse_subscriptions_total SSE subscriptions accepted.\n")
	fmt.Fprintf(w, "# TYPE tightsched_sse_subscriptions_total counter\n")
	fmt.Fprintf(w, "tightsched_sse_subscriptions_total %d\n", s.metrics.sseSubscribed.Load())
	fmt.Fprintf(w, "# HELP tightsched_sse_dropped_total SSE subscribers dropped for lagging.\n")
	fmt.Fprintf(w, "# TYPE tightsched_sse_dropped_total counter\n")
	fmt.Fprintf(w, "tightsched_sse_dropped_total %d\n", s.metrics.sseDropped.Load())
	cl := s.clusterMetrics()
	fmt.Fprintf(w, "# HELP tightsched_cluster_units Cluster work units by lease state, across campaigns.\n")
	fmt.Fprintf(w, "# TYPE tightsched_cluster_units gauge\n")
	fmt.Fprintf(w, "tightsched_cluster_units{state=\"available\"} %d\n", cl.Available)
	fmt.Fprintf(w, "tightsched_cluster_units{state=\"leased\"} %d\n", cl.Leased)
	fmt.Fprintf(w, "tightsched_cluster_units{state=\"done\"} %d\n", cl.UnitsDone)
	fmt.Fprintf(w, "# HELP tightsched_cluster_workers Distinct workers holding live leases.\n")
	fmt.Fprintf(w, "# TYPE tightsched_cluster_workers gauge\n")
	fmt.Fprintf(w, "tightsched_cluster_workers %d\n", cl.Workers)
	fmt.Fprintf(w, "# HELP tightsched_cluster_leases_total Lease lifecycle transitions by kind.\n")
	fmt.Fprintf(w, "# TYPE tightsched_cluster_leases_total counter\n")
	fmt.Fprintf(w, "tightsched_cluster_leases_total{event=\"granted\"} %d\n", cl.Granted)
	fmt.Fprintf(w, "tightsched_cluster_leases_total{event=\"expired\"} %d\n", cl.Expired)
	fmt.Fprintf(w, "tightsched_cluster_leases_total{event=\"requeued\"} %d\n", cl.Requeued)
	fmt.Fprintf(w, "tightsched_cluster_leases_total{event=\"resharded\"} %d\n", cl.Resharded)
	fmt.Fprintf(w, "# HELP tightsched_cluster_heartbeats_total Lease heartbeats received.\n")
	fmt.Fprintf(w, "# TYPE tightsched_cluster_heartbeats_total counter\n")
	fmt.Fprintf(w, "tightsched_cluster_heartbeats_total %d\n", cl.Heartbeats)
	fmt.Fprintf(w, "# HELP tightsched_cluster_uploads_total Uploaded instances by ingest outcome.\n")
	fmt.Fprintf(w, "# TYPE tightsched_cluster_uploads_total counter\n")
	fmt.Fprintf(w, "tightsched_cluster_uploads_total{outcome=\"accepted\"} %d\n", cl.Accepted)
	fmt.Fprintf(w, "tightsched_cluster_uploads_total{outcome=\"duplicate\"} %d\n", cl.Duplicates)
	fmt.Fprintf(w, "tightsched_cluster_uploads_total{outcome=\"conflict\"} %d\n", cl.Conflicts)
	fmt.Fprintf(w, "# HELP tightsched_campaign_wall_seconds Per-campaign execution wall clock.\n")
	fmt.Fprintf(w, "# TYPE tightsched_campaign_wall_seconds gauge\n")
	sort.Slice(walls, func(i, j int) bool { return walls[i].id < walls[j].id })
	for _, c := range walls {
		if c.seconds > 0 {
			fmt.Fprintf(w, "tightsched_campaign_wall_seconds{campaign=%q,state=%q} %.3f\n", c.id, c.state, c.seconds)
		}
	}
}

// writeJSON writes a JSON response.
func writeJSON(w http.ResponseWriter, status int, payload any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(payload)
}

// writeError writes the structured error envelope shared with spec
// validation: {"error": {"path": ..., "message": ...}}.
func writeError(w http.ResponseWriter, status int, path, message string) {
	writeJSON(w, status, map[string]any{"error": &SpecError{Path: path, Message: message}})
}

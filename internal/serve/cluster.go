package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tightsched"
	"tightsched/internal/cluster"
)

// This file is the daemon side of the elastic cluster execution layer
// (internal/cluster): the run.cluster spec block, the coordinator
// lifecycle (including crash recovery from the lease logs on disk), and
// the worker-facing lease endpoints.

// ClusterSpec is the validated run.cluster block: the campaign runs as
// leased work units on external worker processes instead of in-process
// on the runner pool.
type ClusterSpec struct {
	// Units is the initial work-unit decomposition width.
	Units int
	// LeaseTTL is how long a lease survives without a heartbeat.
	LeaseTTL time.Duration
	// GCInterval is the expired-lease sweep cadence.
	GCInterval time.Duration
	// Reshard splits requeued units into their two half-width children.
	Reshard bool
}

// clusterFromTree parses run.cluster. Durations are strings in Go form
// ("15s", "500ms"); zero values select the coordinator's defaults.
func clusterFromTree(m map[string]any) (*ClusterSpec, *SpecError) {
	cs := &ClusterSpec{}
	if serr := decodeBlock(m, "run.cluster.", false,
		field{key: "units", set: intTo(&cs.Units, 1, positiveInt)},
		field{key: "leaseTtl", set: durationTo(&cs.LeaseTTL)},
		field{key: "gcInterval", set: durationTo(&cs.GCInterval)},
		field{key: "reshard", set: boolTo(&cs.Reshard)},
	); serr != nil {
		return nil, serr
	}
	return cs, nil
}

// durationTo types a positive Go duration string; "" keeps the default.
func durationTo(dst *time.Duration) setter {
	return func(v any, path string) *SpecError {
		s, serr := stringOf(v, path)
		if serr != nil || s == "" {
			return serr
		}
		d, err := time.ParseDuration(s)
		if err != nil || d <= 0 {
			return specErr(path, "must be a positive Go duration (e.g. \"15s\"), got %q", s)
		}
		*dst = d
		return nil
	}
}

// leasePath is the campaign's lease-log file, next to its journal.
func leasePath(journalPath string) string {
	return strings.TrimSuffix(journalPath, ".journal") + ".leases"
}

// openOrCreateJournal resumes an existing campaign journal or starts a
// fresh one — the cluster path's create-or-resume seam, shared by submit
// and daemon-restart recovery. format applies only on creation; an
// existing journal's encoding is sniffed from the file.
func openOrCreateJournal(path string, sweep tightsched.Sweep, format tightsched.JournalFormat) (*tightsched.SweepJournal, error) {
	if _, err := os.Stat(path); err == nil {
		return tightsched.OpenSweepJournal(path)
	}
	return tightsched.CreateSweepJournalFormat(path, sweep, tightsched.SweepShard{}, format)
}

// runClusterCampaign owns one cluster campaign: it starts (or resumes)
// the coordinator, drives the expired-lease GC loop, and resolves the
// campaign when the journal covers the grid, the context is cancelled,
// or the coordinator fails. Cluster campaigns do not consume a runner
// slot — the simulation happens in worker processes; the daemon only
// coordinates.
func (s *Server) runClusterCampaign(ctx context.Context, c *Campaign) {
	defer s.wg.Done()
	c.markRunning(time.Now().UTC())

	journal, err := openOrCreateJournal(c.journalPath, c.Spec.Sweep, c.Spec.Format)
	if err != nil {
		c.finish(ctx, err, nil, time.Now().UTC())
		return
	}
	obs := metricsObserver{observer{c}, &s.metrics}
	cs := c.Spec.Cluster
	coord, err := cluster.Start(cluster.Config{
		Campaign:   c.ID,
		Name:       c.Name,
		Submitted:  c.Submitted,
		Sweep:      c.Spec.Sweep,
		Units:      cs.Units,
		LeaseTTL:   cs.LeaseTTL,
		GCInterval: cs.GCInterval,
		Reshard:    cs.Reshard,
		Journal:    journal,
		StatePath:  leasePath(c.journalPath),
		OnInstance: func(ev tightsched.InstanceDone) {
			obs.OnInstanceDone(ev)
			obs.OnProgress(tightsched.Progress{Completed: ev.Completed, Total: ev.Total})
		},
		Logf: s.logf,
	})
	if err != nil {
		journal.Close()
		c.finish(ctx, err, nil, time.Now().UTC())
		return
	}
	c.setCoordinator(coord)
	done, total := coord.Progress()
	obs.OnProgress(tightsched.Progress{Completed: done, Total: total})

	tick := time.NewTicker(coord.GCInterval())
	defer tick.Stop()
	var runErr error
loop:
	for {
		select {
		case <-ctx.Done():
			// An explicit DELETE ends the campaign for good. A daemon
			// shutdown does NOT write the terminal event — the lease
			// log stays live so RecoverClusters resumes the campaign
			// when the daemon comes back, exactly as it would after a
			// kill -9.
			if c.CancelRequested() {
				coord.End("cancelled")
			}
			runErr = ctx.Err()
			break loop
		case <-coord.Done():
			break loop
		case <-tick.C:
			if _, gcErr := coord.GC(); gcErr != nil {
				coord.End("failed")
				runErr = gcErr
				break loop
			}
		}
	}

	// Freeze the stats for status/metrics, detach the live coordinator
	// (lease endpoints answer 410 from here on), then release the files.
	c.finishCluster(coord.Snapshot())
	coord.Close()
	var res *tightsched.SweepResult
	if runErr == nil {
		res = &tightsched.SweepResult{Sweep: c.Spec.Sweep, Instances: journal.Instances()}
	}
	journal.Close()
	c.finish(ctx, runErr, res, time.Now().UTC())
}

// RecoverClusters rescans the data directory for lease logs of cluster
// campaigns that were live when the daemon last stopped, re-registers
// them and resumes their coordinators. Terminal campaigns (their logs
// end with an "end" event) are left alone. It returns the resumed
// campaign IDs; call it once, after NewServer, before serving traffic.
func (s *Server) RecoverClusters() ([]string, error) {
	if s.cfg.DataDir == "" {
		return nil, nil
	}
	paths, err := filepath.Glob(filepath.Join(s.cfg.DataDir, "*.leases"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var resumed []string
	for _, p := range paths {
		st, err := cluster.ReadState(p)
		if err != nil {
			s.logf("serve: skipping unreadable lease log %s: %v", p, err)
			continue
		}
		header := st.Header
		if st.Terminal != "" || header.Campaign == "" {
			continue
		}
		sweep, err := tightsched.SweepFromSpec(header.Spec)
		if err != nil {
			s.logf("serve: cannot rebuild campaign %s from %s: %v", header.Campaign, p, err)
			continue
		}
		spec := &Spec{
			Name:    header.Name,
			Sweep:   sweep,
			Stamped: header.Spec,
			Journal: true,
			Cluster: &ClusterSpec{
				Units:      header.Units,
				LeaseTTL:   header.LeaseTTL(),
				GCInterval: header.GCInterval(),
				Reshard:    header.Reshard,
			},
		}
		s.mu.Lock()
		if s.closed || s.campaigns[header.Campaign] != nil {
			s.mu.Unlock()
			continue
		}
		c, ctx := s.addCampaign(header.Campaign, spec, header.Submitted, strings.TrimSuffix(p, ".leases")+".journal")
		s.mu.Unlock()
		go s.runClusterCampaign(ctx, c)
		resumed = append(resumed, c.ID)
		s.logf("serve: resuming cluster campaign %s from %s", c.ID, p)
	}
	return resumed, nil
}

// handleClusterClaim leases the next available work unit from any live
// cluster campaign, oldest submission first. 204 means nothing to do
// right now (no cluster campaigns, or all units leased or done) — the
// worker polls again.
func (s *Server) handleClusterClaim(w http.ResponseWriter, r *http.Request) {
	var req cluster.ClaimRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "", "invalid claim body: "+err.Error())
		return
	}
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	table := make(map[string]*Campaign, len(ids))
	for id, c := range s.campaigns {
		table[id] = c
	}
	s.mu.Unlock()
	for _, id := range ids {
		coord := table[id].Coordinator()
		if coord == nil {
			continue
		}
		grant, err := coord.Claim(req.Worker)
		if err != nil {
			if errors.Is(err, cluster.ErrCampaignDone) {
				continue
			}
			writeError(w, http.StatusInternalServerError, "", err.Error())
			return
		}
		if grant != nil {
			writeJSON(w, http.StatusOK, grant)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// leaseCoordinator resolves {id} to a campaign with a live coordinator,
// or answers the request itself: 404 for an unknown campaign, 410 for a
// campaign that is not (or no longer) running in cluster mode — in
// either case the worker should abandon the lease and claim fresh work.
func (s *Server) leaseCoordinator(w http.ResponseWriter, r *http.Request) *cluster.Coordinator {
	c := s.campaign(w, r)
	if c == nil {
		return nil
	}
	coord := c.Coordinator()
	if coord == nil {
		writeError(w, http.StatusGone, "", fmt.Sprintf("campaign %s has no live cluster coordinator", c.ID))
		return nil
	}
	return coord
}

func (s *Server) handleLeaseHeartbeat(w http.ResponseWriter, r *http.Request) {
	coord := s.leaseCoordinator(w, r)
	if coord == nil {
		return
	}
	deadline, err := coord.Heartbeat(r.PathValue("lease"))
	if err != nil {
		writeError(w, http.StatusGone, "", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, cluster.HeartbeatResponse{Deadline: deadline})
}

func (s *Server) handleLeaseResults(w http.ResponseWriter, r *http.Request) {
	coord := s.leaseCoordinator(w, r)
	if coord == nil {
		return
	}
	var req cluster.UploadRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "", "invalid upload body: "+err.Error())
		return
	}
	resp, err := coord.Ingest(r.PathValue("lease"), req.Instances)
	if err != nil {
		writeError(w, http.StatusBadRequest, "", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleLeaseComplete(w http.ResponseWriter, r *http.Request) {
	coord := s.leaseCoordinator(w, r)
	if coord == nil {
		return
	}
	switch err := coord.Complete(r.PathValue("lease")); {
	case err == nil:
		writeJSON(w, http.StatusOK, cluster.CompleteResponse{Done: true})
	case errors.Is(err, cluster.ErrLeaseGone):
		writeError(w, http.StatusGone, "", err.Error())
	case errors.Is(err, cluster.ErrUnitIncomplete):
		writeError(w, http.StatusConflict, "", err.Error())
	default:
		writeError(w, http.StatusInternalServerError, "", err.Error())
	}
}

// clusterMetrics aggregates lease-lifecycle stats across every cluster
// campaign (live coordinators and frozen finals alike) for /metrics.
func (s *Server) clusterMetrics() cluster.Stats {
	s.mu.Lock()
	campaigns := make([]*Campaign, 0, len(s.order))
	for _, id := range s.order {
		campaigns = append(campaigns, s.campaigns[id])
	}
	s.mu.Unlock()
	var agg cluster.Stats
	for _, c := range campaigns {
		st := c.ClusterStats()
		if st == nil {
			continue
		}
		agg.Units += st.Units
		agg.UnitsDone += st.UnitsDone
		agg.Leased += st.Leased
		agg.Available += st.Available
		agg.Workers += st.Workers
		agg.Granted += st.Granted
		agg.Expired += st.Expired
		agg.Requeued += st.Requeued
		agg.Resharded += st.Resharded
		agg.Heartbeats += st.Heartbeats
		agg.Accepted += st.Accepted
		agg.Duplicates += st.Duplicates
		agg.Conflicts += st.Conflicts
	}
	return agg
}

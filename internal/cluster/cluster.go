// Package cluster is the elastic coordinator/worker execution layer: it
// runs one campaign across any number of worker processes that may
// crash, stall, or resurrect at any time — the same volatility the
// paper models in its platforms, survived by the system that simulates
// them.
//
// The durability primitives come from internal/exp: a campaign
// decomposes into disjoint grid slices with Shard(i,n) semantics, every
// instance has a deterministic coordinate key and a coordinate-derived
// seed, and the per-campaign journal dedupes on those keys. On top of
// that, this package adds the fault-tolerance contract:
//
//   - The coordinator leases work units (unit = shard spec + journal
//     offset + deadline) to workers and ingests completed instances
//     streamed back over HTTP into the campaign journal.
//   - Workers heartbeat to keep their lease alive, with jittered
//     exponential backoff (internal/retry) while the coordinator is
//     unreachable; a coordinator restart costs reconnection time, not
//     work.
//   - A GC pass detects expired leases and requeues their units —
//     optionally split in two (shard (i,n) partitions exactly into
//     (i,2n) and (i+n,2n)) so a straggler's remainder spreads across
//     the fleet. A kill -9'd worker costs one lease, never the
//     campaign.
//   - Results are ingested idempotently: a resurrected worker's
//     duplicate uploads dedupe by coordinate key (determinism
//     guarantees the recorded and re-uploaded outcomes agree; a
//     mismatch is counted and refused rather than journaled).
//   - Lease state persists in an append-only JSONL log next to the
//     journal, so the coordinator itself can be killed mid-campaign
//     and resume: grants, requeues, splits and completions replay;
//     in-flight leases are re-armed with a fresh deadline and expire
//     through the normal GC path if their worker also died.
//
// The acceptance bar is the same as every other execution core in this
// repo: the merged result is byte-identical to a sequential run,
// whatever the interleaving of crashes, requeues and duplicates.
package cluster

import (
	"errors"
	"time"

	"tightsched/internal/exp"
)

// Wire types: the JSON bodies of the coordinator's HTTP contract
// (mounted by internal/serve under /v1/cluster and
// /v1/campaigns/{id}/cluster).

// ClaimRequest asks for a lease on any available work unit.
type ClaimRequest struct {
	// Worker names the claiming process (for lease bookkeeping and
	// metrics; uniqueness is recommended, not enforced).
	Worker string `json:"worker"`
}

// LeaseGrant is a successful claim: one work unit, the campaign
// identity needed to run it, and the heartbeat contract.
type LeaseGrant struct {
	// Campaign is the owning campaign's ID (heartbeats, uploads and
	// completion address it).
	Campaign string `json:"campaign"`
	// Lease is the lease ID, unique within the campaign.
	Lease string `json:"lease"`
	// Unit is the leased grid slice in "i/n" shard form.
	Unit string `json:"unit"`
	// Spec is the campaign's serialized identity; the worker
	// reconstructs the runnable sweep from it (models resolve through
	// the open registry).
	Spec exp.SweepSpec `json:"spec"`
	// Deadline is when the lease expires unless renewed; TTLMillis is
	// the renewal budget (heartbeat well inside it).
	Deadline  time.Time `json:"deadline"`
	TTLMillis int64     `json:"ttlMillis"`
	// Done/Total are campaign-wide journaled-instance counts at grant
	// time (Done is the lease's journal offset).
	Done  int `json:"done"`
	Total int `json:"total"`
}

// HeartbeatResponse acknowledges a renewal with the new deadline.
type HeartbeatResponse struct {
	Deadline time.Time `json:"deadline"`
}

// UploadRequest streams a batch of completed instances for one lease.
type UploadRequest struct {
	Instances []exp.SweepRecord `json:"instances"`
}

// UploadResponse reports what the idempotent ingest did with the batch.
// Uploads are accepted even for a lease that has expired or been
// requeued — the results are valid either way, dedup makes them safe —
// but LeaseLive tells the worker whether continuing the unit is still
// useful.
type UploadResponse struct {
	Accepted   int  `json:"accepted"`
	Duplicates int  `json:"duplicates"`
	Conflicts  int  `json:"conflicts"`
	LeaseLive  bool `json:"leaseLive"`
}

// CompleteResponse acknowledges a unit's completion.
type CompleteResponse struct {
	Done bool `json:"done"`
}

// Sentinel errors of the lease lifecycle, mapped to HTTP statuses by
// the serving layer.
var (
	// ErrLeaseGone: the lease is unknown, expired, requeued or its unit
	// already completed — the worker should abandon the unit and claim
	// fresh work (410 on the wire).
	ErrLeaseGone = errors.New("cluster: lease gone")
	// ErrUnitIncomplete: completion was claimed but the journal does
	// not cover the unit — the lease is requeued (409 on the wire).
	ErrUnitIncomplete = errors.New("cluster: unit incomplete in journal")
	// ErrCampaignDone: the campaign has finished; nothing to claim.
	ErrCampaignDone = errors.New("cluster: campaign complete")
)

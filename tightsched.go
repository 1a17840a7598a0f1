// Package tightsched is a Go reproduction of "Scheduling Tightly-Coupled
// Applications on Heterogeneous Desktop Grids" (Casanova, Dufossé, Robert,
// Vivien — HCW 2013): scheduling iterative master-worker applications
// whose tasks are tightly coupled (all enrolled workers must be UP
// simultaneously for the computation to progress) on volatile desktop-grid
// processors with a 3-state availability model (UP / RECLAIMED / DOWN) and
// a bandwidth-bounded master.
//
// The package is a thin façade over the implementation packages:
//
//   - scenario construction (paper-style random platforms or custom ones),
//   - the paper's 17 scheduling heuristics (4 passive incremental, 12
//     proactive combinations, RANDOM),
//   - the Section V Markov-chain estimates of success probability and
//     expected completion time,
//   - a discrete-event simulator implementing the Section III execution
//     model, with two byte-identical time-advance cores: the production
//     trial-group loop (cost scales with availability transitions and
//     phase events; a campaign cell's instances share availability walks
//     and greedy builds) and the reference slot-stepped loop,
//   - pluggable availability models (the paper's Markov chains, the
//     Section VII.B semi-Markov future-work model, recorded-trace
//     replay), and
//   - the Section VII experiment harness (Tables I-II, Figure 2, and the
//     cross-model Table III), with journaled, resumable and shardable
//     campaign execution for long or distributed sweeps.
//
// Quickstart:
//
//	s := tightsched.NewSession()
//	sc := tightsched.PaperScenario(5, 10, 2, 42)
//	res, err := s.Run(ctx, sc, "Y-IE", tightsched.WithSeed(1))
//	// res.Makespan is the number of slots to complete 10 iterations.
//
// The Session API (session.go) is the primary surface: every entry point
// takes a context.Context honored at macro-step and instance boundaries,
// configuration flows through functional options (WithSeed, WithModel,
// WithJournal, ...), campaigns stream typed events (Session.Stream,
// Observer), and new heuristics/availability models plug in by name via
// RegisterHeuristic/RegisterModel. This file holds the model, campaign
// and journal types plus the stateless helpers around them; every
// operation that runs something is a Session method.
//
// See the examples/ directory and DESIGN.md for the full tour.
package tightsched

import (
	"fmt"

	"tightsched/internal/analytic"
	"tightsched/internal/app"
	"tightsched/internal/avail"
	"tightsched/internal/exp"
	"tightsched/internal/grid"
	"tightsched/internal/markov"
	"tightsched/internal/platform"
	"tightsched/internal/rng"
	"tightsched/internal/sched"
	"tightsched/internal/sim"
	"tightsched/internal/stats"
	"tightsched/internal/trace"
)

// Model types.
type (
	// Platform is a desktop grid: volatile processors plus the master's
	// communication capacity.
	Platform = platform.Platform
	// Processor is one volatile worker (speed, capacity, availability).
	Processor = platform.Processor
	// Application is the tightly-coupled iterative application model.
	Application = app.Application
	// Assignment maps tasks onto processors (Assignment[q] = x_q).
	Assignment = app.Assignment
	// AvailabilityMatrix is a 3-state Markov transition matrix over
	// (UP, RECLAIMED, DOWN).
	AvailabilityMatrix = markov.Matrix
	// State is a processor availability state.
	State = markov.State
)

// Availability states.
const (
	Up        = markov.Up
	Reclaimed = markov.Reclaimed
	Down      = markov.Down
)

// Availability-model types (see internal/avail): the ground truth a
// simulation executes is pluggable, while heuristics always reason over
// the matrices the model tells them to believe.
type (
	// AvailabilityModel is the pluggable ground-truth availability
	// process, selected per platform (Platform.Model) or per run
	// (WithModel).
	AvailabilityModel = avail.Model
	// MarkovModel is the paper's Section III.B model (the default).
	MarkovModel = avail.MarkovModel
	// SemiMarkovModel is the paper's Section VII.B future-work model:
	// non-memoryless holding times with fitted believed matrices.
	SemiMarkovModel = avail.SemiMarkovModel
	// TraceModel replays a recorded availability log with believed
	// matrices fitted from the log.
	TraceModel = avail.TraceModel
	// HoldingSpec configures one state's holding-time distribution in a
	// derived SemiMarkovModel.
	HoldingSpec = avail.HoldingSpec
	// SojournMarkovModel is MarkovModel's run-length twin: the same
	// chains sampled by geometric sojourns, statistically identical but
	// with O(1) work per availability transition instead of per slot —
	// the opt-in provider for huge caps under the event-leap engine.
	SojournMarkovModel = avail.SojournMarkovModel
	// StateProvider feeds a simulation raw availability states slot by
	// slot (scripted runs; models subsume it for everything else).
	StateProvider = avail.StateProvider
	// RunProvider is the optional StateProvider extension the event-leap
	// engine consumes: run lengths of constant state vectors instead of
	// one vector per slot. Providers that lack it are adapted
	// transparently.
	RunProvider = avail.RunProvider
)

// NewSemiMarkovModel returns the standard heavy-tailed semi-Markov model:
// Weibull UP holding times with the given shape (< 1 is the heavy-tailed
// desktop-grid regime).
func NewSemiMarkovModel(upShape float64) *SemiMarkovModel {
	return avail.NewSemiMarkov(upShape)
}

// NewTraceModel parses a compact textual availability script ('u', 'r',
// 'd'; one string per processor) into a replay model.
func NewTraceModel(label string, perProc []string) (*TraceModel, error) {
	return avail.NewTraceModel(label, perProc)
}

// AvailabilityModels returns the names accepted by ModelByName — the
// three built-ins plus anything plugged in through RegisterModel —
// sorted. The slice is a defensive copy; mutating it cannot corrupt the
// registry.
func AvailabilityModels() []string { return avail.Names() }

// ModelByName returns a fresh built-in availability model by name.
func ModelByName(name string) (AvailabilityModel, error) { return avail.Builtin(name) }

// Simulation types.
type (
	// AnalyticOptions tune the Section V evaluator (WithAnalytic):
	// membership-keyed set-statistics memoization is on by default
	// (canonical values — every evaluation of a set returns the same
	// floats, and golden simulations match the memo-disabled path byte
	// for byte); Spectral opts into the exact closed-form fast path,
	// which agrees with the series within the configured precision.
	AnalyticOptions = analytic.Options
	// Result is the outcome of one run.
	Result = sim.Result
	// TimeAdvance is the type of Sweep.Advance.
	//
	// Deprecated: every front door runs the one production core; leave
	// Sweep.Advance zero.
	TimeAdvance = sim.TimeAdvance
	// Recorder captures execution traces (see Figure 1), run-length
	// encoded: memory scales with availability/activity transitions, not
	// with slots. Per-slot views come from Recorder.Steps and Recorder.At.
	Recorder = trace.Recorder
	// TraceStep is one reconstructed slot of a recorded trace.
	TraceStep = trace.Step
	// Heuristic is the scheduling-policy interface; implement it to plug
	// a custom policy into the simulator via WithCustomHeuristic.
	Heuristic = sched.Heuristic
)

// Experiment-harness types.
type (
	// Sweep describes a Section VII experimental campaign.
	Sweep = exp.Sweep
	// SweepResult holds a campaign's raw instance results.
	SweepResult = exp.Result
	// TableRow is one line of Table I / Table II.
	TableRow = exp.TableRow
	// SweepJournal is an append-only on-disk record of a campaign's
	// completed instances — the unit of resume and shard recombination.
	SweepJournal = exp.Journal
	// SweepShard names one deterministic slice of a campaign's instance
	// grid (shard i of n; the zero value is the whole campaign).
	SweepShard = exp.Shard
	// SweepInstance is one (model, point, trial, heuristic) outcome —
	// what a WithSink callback receives and a journal records.
	SweepInstance = exp.InstanceResult
	// SweepKey is an instance's unique campaign coordinate.
	SweepKey = exp.Key
	// SweepSpec is the JSON-serializable identity of a campaign, as
	// stamped in journal headers.
	SweepSpec = exp.SweepSpec
	// SweepCacheStats summarizes the cross-instance sharing of one sweep
	// cell (PointDone.Cache).
	SweepCacheStats = exp.CacheStats
)

// DefaultCap is the paper's makespan failure limit (1,000,000 slots).
const DefaultCap = sim.DefaultCap

// AdvanceLeap is the zero TimeAdvance: the production core every run
// uses, a trial-group loop that leaps between availability transitions
// and phase events.
//
// Deprecated: it is the default; leave Sweep.Advance zero.
const AdvanceLeap = sim.AdvanceLeap

// AdvanceBatch is another name for AdvanceLeap.
//
// Deprecated: it is the default; leave Sweep.Advance zero.
const AdvanceBatch = sim.AdvanceLeap

// Scenario bundles a platform and an application: everything that defines
// a scheduling problem except the availability realization.
type Scenario struct {
	Platform *Platform
	App      Application
}

// Validate checks both halves of the scenario.
func (sc Scenario) Validate() error {
	if sc.Platform == nil {
		return fmt.Errorf("tightsched: scenario has no platform")
	}
	if err := sc.Platform.Validate(); err != nil {
		return err
	}
	if err := sc.App.Validate(); err != nil {
		return err
	}
	if sc.Platform.TotalCapacity() < sc.App.Tasks {
		return fmt.Errorf("tightsched: platform capacity below %d tasks", sc.App.Tasks)
	}
	return nil
}

// PaperScenario draws a random scenario with the Section VII.A parameters:
// p = 20 processors, self-loop probabilities uniform in [0.90, 0.99),
// w_q ~ U[wmin, 10·wmin], Tdata = wmin, Tprog = 5·wmin, 10 iterations.
func PaperScenario(m, ncom, wmin int, seed uint64) Scenario {
	pl := platform.GeneratePaper(platform.DefaultPaperConfig(wmin, ncom), rng.New(seed))
	return Scenario{
		Platform: pl,
		App:      Application{Tasks: m, Tprog: 5 * wmin, Tdata: wmin, Iterations: 10},
	}
}

// HeuristicSummary aggregates one heuristic's results over trials.
type HeuristicSummary struct {
	Heuristic string
	// Fails counts trials that hit the cap.
	Fails int
	// Makespan summarizes the makespans of succeeding trials.
	Makespan stats.Summary
	// MeanRestarts and MeanReconfigs average over all trials.
	MeanRestarts  float64
	MeanReconfigs float64
}

// SetEstimate carries the Section V approximations for a worker set of a
// scenario: the probability P⁺ that the set is simultaneously UP again
// before a failure, the success probability and conditional expected
// duration of a W-slot coupled computation.
type SetEstimate struct {
	Pplus            float64
	SuccessProb      float64
	ExpectedDuration float64
}

// Heuristics returns the names of every registered heuristic — the
// paper's 17, the extension baselines, and anything plugged in through
// RegisterHeuristic — sorted. The slice is a defensive copy; mutating it
// cannot corrupt the registry. PaperHeuristics returns just the paper's
// set in its presentation order.
func Heuristics() []string { return sched.Registered() }

// PaperHeuristics returns the paper's 17 heuristic names in the paper's
// order (the default heuristic set of Compare and sweeps). The slice is a
// fresh copy.
func PaperHeuristics() []string { return sched.Names() }

// PaperSweep returns the full Section VII campaign for m tasks.
func PaperSweep(m int) Sweep { return exp.PaperSweep(m) }

// QuickSweep returns a reduced campaign preserving the sweep's shape.
func QuickSweep(m int) Sweep { return exp.QuickSweep(m) }

// CreateSweepJournal starts a new journal for the sweep (shard is the
// slice stamp; the zero SweepShard means the whole campaign).
func CreateSweepJournal(path string, sweep Sweep, shard SweepShard) (*SweepJournal, error) {
	return exp.CreateJournal(path, sweep, shard)
}

// OpenSweepJournal opens an existing journal for resuming, tolerating a
// crash-torn final line.
func OpenSweepJournal(path string) (*SweepJournal, error) {
	return exp.OpenJournal(path)
}

// MergeSweepJournals recombines shard journals of one campaign into one
// complete result, erroring on gaps or conflicts. Mixed-format shards
// merge transparently.
func MergeSweepJournals(paths ...string) (*SweepResult, error) {
	return exp.MergeJournals(paths...)
}

// JournalFormat selects a journal's on-disk encoding: JournalJSONL (the
// default, one JSON document per line) or JournalBinary (the compact
// length-prefixed record container — same records, CRC-checked, several
// times faster to replay). Readers sniff the format from the file, so
// the choice matters only at creation.
type JournalFormat = exp.Format

const (
	JournalJSONL  = exp.FormatJSONL
	JournalBinary = exp.FormatBinary
)

// ParseJournalFormat parses a format name: "" or "jsonl" → JournalJSONL,
// "binary" (or "bin") → JournalBinary.
func ParseJournalFormat(s string) (JournalFormat, error) { return exp.ParseFormat(s) }

// CreateSweepJournalFormat is CreateSweepJournal with an explicit on-disk
// encoding.
func CreateSweepJournalFormat(path string, sweep Sweep, shard SweepShard, format JournalFormat) (*SweepJournal, error) {
	return exp.CreateJournalFormat(path, sweep, shard, format)
}

// ConvertJournal rewrites a journal (sweep or online — the header
// decides) into the requested format at dst, streaming record by record.
// Resume, merge and aggregation treat the converted journal exactly like
// the original.
func ConvertJournal(src, dst string, to JournalFormat) error {
	return exp.ConvertJournal(src, dst, to)
}

// AggregateSweepJournal replays a sweep journal into an aggregation-only
// result: Tables I–III, Figure 2 and the failure-dominance check render
// from streaming accumulators in O(cells) memory, without materializing
// the instance slice. The result's Instances is nil.
func AggregateSweepJournal(path string) (*SweepResult, error) {
	return exp.AggregateJournal(path)
}

// AggregateOnlineJournal replays an online grid journal into an
// aggregation-only result whose Table IV renders without holding the
// instance slice.
func AggregateOnlineJournal(path string) (*SweepResult, error) {
	return exp.AggregateGridJournal(path)
}

// ExportSweepColumns streams a sweep journal into dir as a columnar
// dataset: one raw little-endian file per field plus a JSON manifest
// with dictionaries and a streaming makespan summary — mmap-friendly
// input for numpy/Arrow-style tooling.
func ExportSweepColumns(journalPath, dir string) error {
	return exp.ExportColumns(journalPath, dir)
}

// ParseSweepShard parses the command-line shard form "i/n" (0-based).
func ParseSweepShard(s string) (SweepShard, error) { return exp.ParseShard(s) }

// ReferenceHeuristic is the comparison baseline of the paper's tables
// (IE): the heuristic every relative metric is computed against.
const ReferenceHeuristic = exp.ReferenceHeuristic

// Aggregation slices (see the methods on SweepResult).
type (
	// SweepModelTable is one availability model's Table III slice.
	SweepModelTable = exp.ModelTable
	// SweepSeriesPoint is one (wmin, %diff) point of a Figure 2 series.
	SweepSeriesPoint = exp.SeriesPoint
)

// Online multi-application grid types (Session.RunOnline): arrival
// streams feed admission and preemption policies sharing one
// heterogeneous volatile platform, and per-application SLO metrics
// aggregate into Table IV.
type (
	// OnlineSweep describes an online campaign: the platform's speed
	// tiers, the per-application workload shape, and the arrival ×
	// admission × preemption × trial axes.
	OnlineSweep = exp.GridSweep
	// OnlineSpec is an OnlineSweep's JSON-serializable identity, as
	// stamped in grid journal headers.
	OnlineSpec = exp.GridSpec
	// OnlineArrival declares one arrival process: a seeded Poisson
	// stream or an inline recorded trace.
	OnlineArrival = grid.ArrivalSpec
	// OnlineEntry is one application arrival (trace entry or
	// materialized stream element).
	OnlineEntry = grid.Arrival
	// OnlineInstance is one (arrival, admission, preemption, trial)
	// outcome — what a grid journal records.
	OnlineInstance = exp.GridInstance
	// OnlineKey is an online instance's unique campaign coordinate.
	OnlineKey = exp.GridKey
	// OnlineResult holds an online campaign's raw per-instance results
	// (SweepResult.Grid); TableIV aggregates them.
	OnlineResult = exp.GridResult
	// OnlineJournal is the append-only on-disk record of an online
	// campaign's completed instances — the unit of resume.
	OnlineJournal = exp.GridJournal
	// OnlineAppReport is one application's full online outcome
	// (response, slowdown, deadline verdict, preemption count).
	OnlineAppReport = grid.AppReport
	// TableIVRow is one aggregated line of Table IV.
	TableIVRow = exp.TableIVRow
	// AdmissionPolicy orders the admission queue of an online grid;
	// implement and register one via RegisterAdmissionPolicy.
	AdmissionPolicy = grid.AdmissionPolicy
	// PreemptionPolicy picks eviction victims for queued applications;
	// implement and register one via RegisterPreemptionPolicy.
	PreemptionPolicy = grid.PreemptionPolicy
	// GridTelemetry receives live queue/running/deadline-miss updates
	// from inside online event loops (WithGridTelemetry).
	GridTelemetry = grid.Telemetry
	// OnlineSpeedTier is one class of identical-speed processors in an
	// online campaign's heterogeneous platform.
	OnlineSpeedTier = platform.SpeedTier
)

// RegisterAdmissionPolicy makes an admission policy usable by name in
// online campaign axes, the command-line tools and the service daemon —
// and, because grid journal headers record policies by name, in headless
// ResumeOnline of campaigns that used it. Names appear in
// AdmissionPolicies.
func RegisterAdmissionPolicy(name string, f func() AdmissionPolicy) error {
	return grid.RegisterAdmission(name, f)
}

// RegisterPreemptionPolicy is RegisterAdmissionPolicy's preemption
// counterpart; names appear in PreemptionPolicies.
func RegisterPreemptionPolicy(name string, f func() PreemptionPolicy) error {
	return grid.RegisterPreemption(name, f)
}

// AdmissionPolicies returns the names of every registered admission
// policy — the built-ins (fcfs, sjf, edf) plus anything plugged in
// through RegisterAdmissionPolicy — sorted. The slice is a defensive
// copy; mutating it cannot corrupt the registry.
func AdmissionPolicies() []string { return grid.AdmissionNames() }

// PreemptionPolicies returns the names of every registered preemption
// policy — the built-ins (none, lowest-priority) plus anything plugged
// in through RegisterPreemptionPolicy — sorted. The slice is a defensive
// copy.
func PreemptionPolicies() []string { return grid.PreemptionNames() }

// PaperOnlineSweep returns the full online campaign: both arrival kinds,
// all built-in policies, five trials over a 100k-slot horizon.
func PaperOnlineSweep() OnlineSweep { return exp.PaperOnlineSweep() }

// QuickOnlineSweep returns a reduced online campaign preserving the full
// campaign's shape — the one behind `cmd/tables -table 4` and the
// daemon's quick grid preset.
func QuickOnlineSweep() OnlineSweep { return exp.QuickOnlineSweep() }

// ParseOnlineTrace parses a JSONL arrival trace (one
// {"t":..,"app":..,"wmin":..,"deadline":..} object per line; blank lines
// and #-comments skipped) into the entries of a trace OnlineArrival.
func ParseOnlineTrace(data []byte) ([]OnlineEntry, error) { return grid.ParseTrace(data) }

// LoadOnlineTrace reads a JSONL arrival trace file (see ParseOnlineTrace).
func LoadOnlineTrace(path string) ([]OnlineEntry, error) { return grid.LoadTrace(path) }

// CreateOnlineJournal starts a new journal for the online campaign,
// refusing to clobber an existing file.
func CreateOnlineJournal(path string, g OnlineSweep) (*OnlineJournal, error) {
	return exp.CreateGridJournal(path, &g)
}

// OpenOnlineJournal reopens an existing grid journal for appending,
// verifying it belongs to the campaign and dropping a crash-torn tail.
// Both encodings reopen transparently.
func OpenOnlineJournal(path string, g OnlineSweep) (*OnlineJournal, error) {
	return exp.OpenGridJournal(path, &g)
}

// CreateOnlineJournalFormat is CreateOnlineJournal with an explicit
// on-disk encoding.
func CreateOnlineJournalFormat(path string, g OnlineSweep, format JournalFormat) (*OnlineJournal, error) {
	return exp.CreateGridJournalFormat(path, &g, format)
}

// FormatTableIV renders aggregated online rows in the Table IV layout.
func FormatTableIV(rows []TableIVRow) string { return exp.FormatTableIV(rows) }

// FormatTable renders aggregated rows in the paper's table layout.
func FormatTable(rows []TableRow) string { return exp.FormatTable(rows) }

// RenderTableArtifact renders a completed campaign as the numbered table
// artifact (1, 2, the cross-model 3, or the online-grid 4): title line,
// aggregated rows, and (for Tables I/II) the robustness observation —
// exactly the bytes cmd/tables prints after its "# ..." preamble and the
// service daemon serves from GET /v1/campaigns/{id}/tables/{n}.
func RenderTableArtifact(res *SweepResult, table int) (string, error) {
	return exp.RenderTableArtifact(res, table)
}

// FormatTableIII renders the per-model tables of SweepResult.TableIII.
func FormatTableIII(tables []SweepModelTable) string { return exp.FormatTableIII(tables) }

// FormatFigure2 renders the %diff-versus-wmin series of
// SweepResult.Figure2 for the named heuristics.
func FormatFigure2(series map[string][]SweepSeriesPoint, names []string) string {
	return exp.FormatFigure2(series, names)
}

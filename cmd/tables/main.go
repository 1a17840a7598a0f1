// Command tables regenerates the paper's evaluation artifacts: Table I
// (m = 5), Table II (m = 10) and Figure 2 (%diff versus wmin for m = 10),
// by sweeping the Section VII.A experimental space and aggregating the
// paper's metrics against the reference heuristic IE. Table III — the
// cross-model comparison the paper's Section VII.B only speculates
// about — reruns the m = 5 campaign under every availability model of
// -models (Markov ground truth versus model-violating semi-Markov truth
// with fitted believed matrices) and prints one table per model. Table
// IV is the online extension: a multi-application grid campaign (arrival
// streams × admission policies × preemption policies on a heterogeneous
// platform under the diurnal availability model) aggregated into
// per-policy response, slowdown and deadline-miss metrics.
//
// Scale:
//
//	-scale quick   reduced sweep (default; minutes)
//	-scale full    the paper's 3,000-instance-per-m sweep
//
// Measured with go1.24.0 on a 2-vCPU container, full Table I took 568 s
// wall and 1,085 s user CPU on 2 workers; full Table II takes about 100
// CPU-minutes, extrapolated from its shard 1/100.
//
// or override -scenarios / -trials / -cap / -wmins individually.
//
// Usage:
//
//	tables -table 1
//	tables -table 2
//	tables -table 3
//	tables -table 3 -models markov,semimarkov,lognormal
//	tables -table 4
//	tables -figure 2
//	tables -table 1 -scale full
//
// Long campaigns are journaled, resumable and shardable: -journal streams
// every completed instance to an append-only file, -resume continues an
// interrupted journal (only missing instances re-run; results are
// bit-identical to an uninterrupted run), -shard i/n runs one of n
// disjoint slices (0-based), and -merge recombines shard journals into
// the full tables without re-running anything:
//
//	tables -table 2 -scale full -journal t2.journal     # crash-safe
//	tables -table 2 -scale full -journal t2.journal -resume
//	tables -table 2 -scale full -journal t2-0.journal -shard 0/3   # CI job 0
//	tables -table 2 -merge t2-0.journal,t2-1.journal,t2-2.journal
//
// SIGINT/SIGTERM (Ctrl-C) cancel the run context: in-flight simulations
// stop at macro-step boundaries, every completed instance is already flushed to
// the journal, and the file is closed cleanly — rerunning with -resume
// continues exactly where the interrupt landed, bit-identically.
//
// Journals come in two encodings: JSONL (default, line-per-record, text
// tooling friendly) and the TSBL binary container (-journal-format
// binary: length-prefixed CRC-checked records, ~4x smaller and ~1.2x
// faster to replay). Resume, merge and the daemon sniff the format from
// the file, so the flag matters only at creation; cmd/journalconv
// converts between the two losslessly. -export-columns dir/ additionally
// dumps the finished sweep journal as a columnar dataset (one
// little-endian file per field plus a JSON manifest) for mmap-style
// analysis outside Go:
//
//	tables -table 2 -scale full -journal t2.journal -journal-format binary
//	journalconv -to jsonl t2.journal t2.jsonl
//	tables -table 2 -scale full -journal t2.journal -resume -export-columns t2-columns/
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"tightsched"
	"tightsched/internal/cli"
)

func main() {
	var (
		table     = flag.Int("table", 0, "regenerate Table 1 (m=5), 2 (m=10), 3 (m=5, per availability model) or 4 (online grid)")
		figure    = flag.Int("figure", 0, "regenerate Figure 2 (%diff vs wmin, m=10)")
		models    = flag.String("models", "", "availability models to sweep, e.g. markov,semimarkov (Table 3 default: markov,semimarkov)")
		scale     = flag.String("scale", "quick", "quick | full")
		scenarios = flag.Int("scenarios", 0, "override scenarios per point")
		trials    = flag.Int("trials", 0, "override trials per scenario")
		capSlots  = flag.Int64("cap", 0, "override failure cap in slots")
		wmins     = flag.String("wmins", "", "override wmin list, e.g. 1,2,3")
		workers   = flag.Int("workers", 0, "parallel simulations (default GOMAXPROCS)")
		seed      = flag.Uint64("seed", 0, "override master seed")
		quiet     = flag.Bool("quiet", false, "suppress progress output")
		journal   = flag.String("journal", "", "stream completed instances to this append-only journal file")
		journalFm = flag.String("journal-format", "", "encoding for a newly created -journal file: jsonl (default) | binary (compact, CRC-checked, faster to replay); resume sniffs the existing file")
		exportCol = flag.String("export-columns", "", "after the run, export the -journal file into this directory as a columnar dataset (one raw little-endian file per field + manifest.json)")
		resume    = flag.Bool("resume", false, "continue an interrupted -journal file (skip recorded instances)")
		shardSpec = flag.String("shard", "", "run one slice i/n of the instance grid (0-based), e.g. -shard 0/3")
		merge     = flag.String("merge", "", "comma-separated shard journals to recombine and aggregate (no simulation)")
	)
	flag.Parse()

	if *table == 0 && *figure == 0 {
		fmt.Fprintln(os.Stderr, "tables: choose -table 1, -table 2, -table 3, -table 4 or -figure 2")
		os.Exit(2)
	}
	if *figure != 0 && *figure != 2 {
		fmt.Fprintln(os.Stderr, "tables: only Figure 2 exists in the paper")
		os.Exit(2)
	}
	if *table != 0 && (*table < 1 || *table > 4) {
		fmt.Fprintln(os.Stderr, "tables: choose Table 1, 2, 3 or 4")
		os.Exit(2)
	}
	if (*table == 1 || *table == 3) && *figure == 2 {
		fmt.Fprintln(os.Stderr, "tables: Tables 1/3 (m=5) and Figure 2 (m=10) need different sweeps")
		os.Exit(2)
	}
	if *models != "" && *table != 3 {
		fmt.Fprintln(os.Stderr, "tables: -models only applies to Table 3; Tables 1/2 and Figure 2 are the paper's single-model artifacts")
		os.Exit(2)
	}
	if *table == 3 && *models == "" {
		*models = "markov,semimarkov"
	}

	// The run context: Ctrl-C (or a SIGTERM from a batch scheduler)
	// cancels it, and every layer below — the campaign worker pool at
	// instance boundaries, each simulation at macro-step boundaries —
	// honors the cancellation promptly.
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()

	jfmt, err := tightsched.ParseJournalFormat(*journalFm)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(2)
	}
	if *journalFm != "" && *journal == "" {
		fmt.Fprintln(os.Stderr, "tables: -journal-format needs -journal")
		os.Exit(2)
	}
	if *exportCol != "" && *journal == "" {
		fmt.Fprintln(os.Stderr, "tables: -export-columns exports the -journal file; pass -journal")
		os.Exit(2)
	}

	if *table == 4 {
		// Table IV aggregates an online grid campaign, a different
		// instance grid from the offline sweeps: the offline campaign
		// shape and execution flags cannot apply.
		var conflicting []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "figure", "models", "scenarios", "cap", "wmins", "shard", "merge", "export-columns":
				conflicting = append(conflicting, "-"+f.Name)
			}
		})
		if len(conflicting) > 0 {
			fmt.Fprintf(os.Stderr, "tables: Table 4 is an online grid campaign; %s cannot apply — drop them\n",
				strings.Join(conflicting, " "))
			os.Exit(2)
		}
		runTable4(ctx, *scale, *trials, *workers, *seed, *journal, jfmt, *resume, *quiet)
		return
	}

	m := 5
	if *table == 2 || *figure == 2 {
		m = 10
	}
	var sweep tightsched.Sweep
	switch *scale {
	case "quick":
		sweep = tightsched.QuickSweep(m)
	case "full":
		sweep = tightsched.PaperSweep(m)
	default:
		fmt.Fprintln(os.Stderr, "tables: -scale must be quick or full")
		os.Exit(2)
	}
	if *scenarios > 0 {
		sweep.Scenarios = *scenarios
	}
	if *trials > 0 {
		sweep.Trials = *trials
	}
	if *capSlots > 0 {
		sweep.Cap = *capSlots
	}
	if *workers > 0 {
		sweep.Workers = *workers
	}
	if *seed != 0 {
		sweep.Seed = *seed
	}
	if *wmins != "" {
		var ws []int
		for _, part := range strings.Split(*wmins, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v <= 0 {
				fmt.Fprintf(os.Stderr, "tables: bad -wmins entry %q\n", part)
				os.Exit(2)
			}
			ws = append(ws, v)
		}
		sweep.Wmins = ws
	}
	if *models != "" {
		for _, part := range strings.Split(*models, ",") {
			model, err := tightsched.ModelByName(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintln(os.Stderr, "tables:", err)
				os.Exit(2)
			}
			sweep.Models = append(sweep.Models, model)
		}
	}

	var res *tightsched.SweepResult
	if *merge != "" {
		if *journal != "" || *resume || *shardSpec != "" {
			fmt.Fprintln(os.Stderr, "tables: -merge aggregates existing journals; drop -journal/-resume/-shard")
			os.Exit(2)
		}
		// The campaign is whatever the journals record; campaign-shaping
		// flags silently meaning nothing would invite quick-vs-full mixups.
		var conflicting []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "scale", "scenarios", "trials", "cap", "wmins", "workers", "seed", "models":
				conflicting = append(conflicting, "-"+f.Name)
			}
		})
		if len(conflicting) > 0 {
			fmt.Fprintf(os.Stderr, "tables: -merge renders the journals' recorded campaign; %s cannot apply — drop them\n",
				strings.Join(conflicting, " "))
			os.Exit(2)
		}
		var paths []string
		for _, p := range strings.Split(*merge, ",") {
			if p = strings.TrimSpace(p); p != "" {
				paths = append(paths, p)
			}
		}
		merged, err := tightsched.MergeSweepJournals(paths...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		if merged.Sweep.M != m {
			fmt.Fprintf(os.Stderr, "tables: journals record a m=%d campaign but the requested artifact needs m=%d\n", merged.Sweep.M, m)
			os.Exit(1)
		}
		sw := merged.Sweep
		fmt.Printf("# merged %d journal(s): m=%d ncom=%v wmin=%v scenarios=%d trials=%d cap=%d seed=%d models=%v (%d instances)\n",
			len(paths), sw.M, sw.Ncoms, sw.Wmins, sw.Scenarios, sw.Trials, sw.Cap, sw.Seed, merged.Models(), len(merged.Instances))
		res = merged
	} else {
		var shard tightsched.SweepShard
		if *shardSpec != "" {
			var err error
			if shard, err = tightsched.ParseSweepShard(*shardSpec); err != nil {
				fmt.Fprintln(os.Stderr, "tables:", err)
				os.Exit(2)
			}
		}
		if *resume && *journal == "" {
			fmt.Fprintln(os.Stderr, "tables: -resume needs -journal")
			os.Exit(2)
		}

		total := sweep.InstanceCount() * len(sweepHeuristics(sweep))
		fmt.Printf("# sweep: m=%d ncom=%v wmin=%v scenarios=%d trials=%d cap=%d models=%v (%d simulations",
			sweep.M, sweep.Ncoms, sweep.Wmins, sweep.Scenarios, sweep.Trials, sweep.Cap, modelNames(sweep), total)
		if *shardSpec != "" {
			fmt.Printf("; shard %s", shard)
		}
		fmt.Println(")")

		session := tightsched.NewSession(
			tightsched.WithProgress(progressLine(*quiet, 200, "simulations")),
			tightsched.WithShard(shard),
		)
		cacheObs := &cacheObserver{}
		runOpts := []tightsched.Option{tightsched.WithObserver(cacheObs)}
		var j *tightsched.SweepJournal
		if *journal != "" {
			j = openOrCreateJournal(*journal, *resume, tightsched.OpenSweepJournal,
				func(path string) (*tightsched.SweepJournal, error) {
					return tightsched.CreateSweepJournalFormat(path, sweep, shard, jfmt)
				})
			runOpts = append(runOpts, tightsched.WithJournal(j))
		}
		var err error
		res, err = session.RunSweep(ctx, sweep, runOpts...)
		endRun(err, j, *journal)
		if *shardSpec != "" {
			fmt.Printf("# NOTE: shard %s only — tables below aggregate a partial grid; recombine journals with -merge\n", shard)
		}
		if *exportCol != "" {
			if err := tightsched.ExportSweepColumns(*journal, *exportCol); err != nil {
				fmt.Fprintln(os.Stderr, "tables:", err)
				os.Exit(1)
			}
			fmt.Printf("# exported columnar dataset to %s\n", *exportCol)
		}
		if cacheObs.cells > 0 {
			t := cacheObs.total
			fmt.Printf("# batch sharing over %d cells: set-stats memo %s hits (%d/%d), shared decisions %s (%d/%d, %d classes), build replays %s (%d/%d), candidates reused %s (%d/%d), candidate values memo %s (%d/%d)\n",
				cacheObs.cells,
				pct(t.MemoHits, t.MemoHits+t.MemoMisses), t.MemoHits, t.MemoHits+t.MemoMisses,
				pct(t.DecisionHits, t.DecisionHits+t.DecisionMisses), t.DecisionHits, t.DecisionHits+t.DecisionMisses,
				t.DecisionClasses,
				pct(t.DecisionReplays, t.DecisionMisses), t.DecisionReplays, t.DecisionMisses,
				pct(t.CandidatesReused, t.CandidatesScored+t.CandidatesReused), t.CandidatesReused, t.CandidatesScored+t.CandidatesReused,
				pct(t.ValueMemoHits, t.ValueMemoLookups), t.ValueMemoHits, t.ValueMemoLookups)
		}
	}

	if *table != 0 {
		// The artifact bytes are rendered by the same function the service
		// daemon serves from GET /v1/campaigns/{id}/tables/{n}, so the two
		// agree byte for byte on identical campaigns (the daemon-e2e CI job
		// diffs them).
		artifact, err := tightsched.RenderTableArtifact(res, *table)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		fmt.Print(artifact)
	}
	if *figure == 2 {
		fmt.Printf("\nFigure 2 — relative distance to IE vs wmin (m = 10)\n\n")
		series, err := res.Figure2(tightsched.ReferenceHeuristic)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		names := []string{"E-IAY", "E-IP", "E-IY", "IAY", "IE", "IY", "P-IE", "Y-IE"}
		fmt.Print(tightsched.FormatFigure2(series, names))
	}
}

// runTable4 executes (or resumes) an online grid campaign and prints
// Table IV. Like the offline path, the artifact bytes come from
// RenderTableArtifact, the same function behind the daemon's
// GET /v1/campaigns/{id}/tables/4.
func runTable4(ctx context.Context, scale string, trials, workers int, seed uint64, journalPath string, format tightsched.JournalFormat, resume, quiet bool) {
	var g tightsched.OnlineSweep
	switch scale {
	case "quick":
		g = tightsched.QuickOnlineSweep()
	case "full":
		g = tightsched.PaperOnlineSweep()
	default:
		fmt.Fprintln(os.Stderr, "tables: -scale must be quick or full")
		os.Exit(2)
	}
	if trials > 0 {
		g.Trials = trials
	}
	if seed != 0 {
		g.Seed = seed
	}
	if workers > 0 {
		g.Workers = workers
	}
	if resume && journalPath == "" {
		fmt.Fprintln(os.Stderr, "tables: -resume needs -journal")
		os.Exit(2)
	}

	arrivals := make([]string, len(g.Arrivals))
	for i, a := range g.Arrivals {
		arrivals[i] = a.Name()
	}
	fmt.Printf("# online grid: arrivals=%v admissions=%v preemptions=%v trials=%d horizon=%d heuristic=%s model=%s seed=%d (%d instances)\n",
		arrivals, g.Admissions, g.Preemptions, g.Trials, g.Horizon, g.Heuristic, g.Model, g.Seed, g.InstanceCount())

	session := tightsched.NewSession(tightsched.WithProgress(progressLine(quiet, 10, "instances")))
	var runOpts []tightsched.Option
	var j *tightsched.OnlineJournal
	if journalPath != "" {
		j = openOrCreateJournal(journalPath, resume,
			func(path string) (*tightsched.OnlineJournal, error) { return tightsched.OpenOnlineJournal(path, g) },
			func(path string) (*tightsched.OnlineJournal, error) {
				return tightsched.CreateOnlineJournalFormat(path, g, format)
			})
		runOpts = append(runOpts, tightsched.WithOnlineJournal(j))
	}
	res, err := session.RunOnline(ctx, g, runOpts...)
	endRun(err, j, journalPath)
	artifact, err := tightsched.RenderTableArtifact(res, 4)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
	fmt.Print(artifact)
}

// sweepHeuristics returns the campaign's resolved heuristic list.
func sweepHeuristics(sweep tightsched.Sweep) []string { return sweep.Spec().Heuristics }

// cacheObserver accumulates the per-cell sharing counters that every
// live cell attaches to its PointDone event, for the end-of-run summary
// line.
type cacheObserver struct {
	total tightsched.SweepCacheStats
	cells int
}

func (o *cacheObserver) OnInstanceDone(tightsched.InstanceDone) {}
func (o *cacheObserver) OnProgress(tightsched.Progress)         {}
func (o *cacheObserver) OnPointDone(ev tightsched.PointDone) {
	if ev.Cache != nil {
		o.total.Add(*ev.Cache)
		o.cells++
	}
}

// pct formats hits/total as a percentage, dodging 0/0.
func pct(hits, total uint64) string {
	if total == 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(total))
}

// progressLine returns a progress callback that redraws one stderr line
// every `every` completed units and at the end (nothing when quiet).
func progressLine(quiet bool, every int, unit string) func(done, total int) {
	start := time.Now()
	return func(done, total int) {
		if quiet || (done%every != 0 && done != total) {
			return
		}
		fmt.Fprintf(os.Stderr, "\r%d/%d %s (%.0fs)", done, total, unit, time.Since(start).Seconds())
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

// journalFile is a sweep or online journal, as the run path uses it.
type journalFile interface {
	DoneCount() int
	Close() error
}

// openOrCreateJournal resumes an existing journal file or starts a fresh
// one, exiting on failure; with -resume a missing file is created
// instead of failing, so one command line works both on first run and
// on restart after a crash. The -journal-format flag applies only to a
// freshly created file — reopening sniffs the encoding from the file
// itself.
func openOrCreateJournal[J journalFile](path string, resume bool, open, create func(path string) (J, error)) J {
	mk := create
	if resume {
		if _, err := os.Stat(path); err == nil {
			mk = open
		} else if !os.IsNotExist(err) {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
	}
	j, err := mk(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
	if n := j.DoneCount(); resume && n > 0 {
		fmt.Printf("# resuming: %d instances already journaled\n", n)
	}
	return j
}

// endRun closes the journal j opened for journalPath (there is none
// when journalPath is empty) and then ends the process if the campaign
// run failed, closing first so a cancelled run leaves a flushed,
// resumable file rather than a torn tail. An interrupt (Ctrl-C,
// SIGTERM) exits with cli.ExitInterrupted, pointing at -resume when a
// journal was attached; any other error exits 1.
func endRun(err error, j journalFile, journalPath string) {
	if journalPath != "" {
		if cerr := j.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err == nil {
		return
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr)
		if journalPath != "" {
			fmt.Fprintf(os.Stderr, "tables: interrupted — journal %s is intact; rerun with -resume to continue\n", journalPath)
		} else {
			fmt.Fprintln(os.Stderr, "tables: interrupted — no journal was attached; pass -journal to make long runs resumable")
		}
		os.Exit(cli.ExitInterrupted)
	}
	fmt.Fprintln(os.Stderr, "tables:", err)
	os.Exit(1)
}

func modelNames(sweep tightsched.Sweep) []string {
	if len(sweep.Models) == 0 {
		return []string{"markov"}
	}
	names := make([]string, len(sweep.Models))
	for i, m := range sweep.Models {
		names[i] = m.Name()
	}
	return names
}

// Command offline explores Section IV of the paper: the off-line
// scheduling problem (full knowledge of future availability), its exact
// solvers, the greedy baseline, and the NP-hardness reduction from ENCD
// (exact bi-clique).
//
// Modes:
//
//	-mode solve    solve a random OFFLINE-COUPLED instance (µ=1 and µ=∞)
//	-mode greedy   compare the greedy heuristic against the exact solver
//	-mode reduce   demonstrate the Theorem 4.1 reduction on random ENCD
//	               instances, verifying equisatisfiability
//
// The greedy/reduce trial loops derive every trial's instance from a
// per-trial seed, so big batches are journaled, resumable and shardable
// exactly like cmd/tables campaigns: -journal streams per-trial outcomes
// to an append-only JSONL file, -resume skips recorded trials, and
// -shard i/n runs the trials congruent to i mod n (0-based) — n CI jobs
// jointly cover the batch disjointly.
//
// SIGINT/SIGTERM (Ctrl-C) cancel the run context at the next trial
// boundary: the journal — flushed per trial — is closed cleanly, so a
// rerun with -resume continues from the interrupted batch instead of
// finding a torn tail.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"tightsched/internal/cli"
	"tightsched/internal/exp"
	"tightsched/internal/offline"
	"tightsched/internal/rng"
)

func main() {
	var (
		mode      = flag.String("mode", "solve", "solve | greedy | reduce")
		p         = flag.Int("p", 12, "processors")
		n         = flag.Int("n", 30, "time-slots")
		m         = flag.Int("m", 4, "tasks")
		w         = flag.Int("w", 5, "per-task time in slots")
		pUp       = flag.Float64("pup", 0.6, "per-slot UP probability")
		seed      = flag.Uint64("seed", 1, "instance seed")
		trials    = flag.Int("trials", 50, "instances for greedy/reduce modes")
		journal   = flag.String("journal", "", "stream per-trial outcomes to this append-only file (greedy/reduce)")
		resume    = flag.Bool("resume", false, "skip trials already recorded in -journal")
		shardSpec = flag.String("shard", "", "run one slice i/n of the trials (0-based), e.g. -shard 0/3")
	)
	flag.Parse()

	var shard exp.Shard
	if *shardSpec != "" {
		var err error
		if shard, err = exp.ParseShard(*shardSpec); err != nil {
			fmt.Fprintln(os.Stderr, "offline:", err)
			os.Exit(2)
		}
	}
	if *mode == "solve" && (*journal != "" || *resume || *shardSpec != "") {
		fmt.Fprintln(os.Stderr, "offline: -journal/-resume/-shard apply to the greedy/reduce trial loops")
		os.Exit(2)
	}
	if *resume && *journal == "" {
		fmt.Fprintln(os.Stderr, "offline: -resume needs -journal")
		os.Exit(2)
	}

	// Trap SIGINT/SIGTERM only for the trial loops, which poll the
	// context each iteration; solve mode never polls, so swallowing the
	// signal there would make Ctrl-C a no-op.
	ctx := context.Background()
	if *mode == "greedy" || *mode == "reduce" {
		var stop context.CancelFunc
		ctx, stop = cli.SignalContext(ctx)
		defer stop()
	}

	stream := rng.New(*seed)
	switch *mode {
	case "solve":
		in := randomInstance(stream, *p, *n, *m, *w, *pUp)
		fmt.Printf("instance: p=%d n=%d m=%d w=%d P(UP)=%.2f\n\n", *p, *n, *m, *w, *pUp)
		sol, ok, err := offline.SolveUnit(in)
		check(err)
		if ok {
			fmt.Printf("µ=1 : satisfiable — processors %v simultaneously UP at slots %v\n",
				sol.Procs, sol.SlotsUsed)
		} else {
			fmt.Println("µ=1 : unsatisfiable")
		}
		sol, ok, err = offline.SolveFlexible(in)
		check(err)
		if ok {
			fmt.Printf("µ=∞ : satisfiable — %d processors × %d tasks each, %d common slots\n",
				len(sol.Procs), sol.TasksPerProc, len(sol.SlotsUsed))
		} else {
			fmt.Println("µ=∞ : unsatisfiable")
		}

	case "greedy":
		tj, err := openTrialJournal(*journal, *resume, trialHeader{
			V: 1, Mode: "greedy", P: *p, N: *n, M: *m, W: *w,
			PUp: *pUp, Seed: *seed, Trials: *trials, Shard: shard.String(),
		})
		check(err)
		exact, greedy, covered := 0, 0, 0
		for i := 0; i < *trials; i++ {
			if ctx.Err() != nil {
				interruptExit(tj, *journal)
			}
			if !shard.Covers(i) {
				continue
			}
			covered++
			rec, ok := tj.done[i]
			if !ok {
				ts := exp.TrialStream(*seed, i)
				in := randomInstance(ts, *p, *n, *m, *w, *pUp)
				_, exOK, err := offline.SolveUnit(in)
				check(err)
				_, grOK, err := offline.GreedyUnit(in)
				check(err)
				rec = trialRecord{Trial: i, A: exOK, B: grOK}
				check(tj.append(rec))
			}
			if rec.A {
				exact++
			}
			if rec.B {
				greedy++
			}
		}
		check(tj.close())
		fmt.Printf("over %d random instances (p=%d n=%d m=%d w=%d P(UP)=%.2f%s):\n",
			covered, *p, *n, *m, *w, *pUp, shardNote(shard))
		fmt.Printf("exact solver : %d satisfiable\n", exact)
		fmt.Printf("greedy       : %d solved (%.0f%% of satisfiable)\n",
			greedy, 100*float64(greedy)/max1(float64(exact)))
		fmt.Println("\nthe gap is the price of polynomial time: the problem is NP-hard (Theorem 4.1)")

	case "reduce":
		tj, err := openTrialJournal(*journal, *resume, trialHeader{
			V: 1, Mode: "reduce", P: *p, N: *n, M: *m, W: *w,
			PUp: *pUp, Seed: *seed, Trials: *trials, Shard: shard.String(),
		})
		check(err)
		agree, sat, covered := 0, 0, 0
		for i := 0; i < *trials; i++ {
			if ctx.Err() != nil {
				interruptExit(tj, *journal)
			}
			if !shard.Covers(i) {
				continue
			}
			covered++
			rec, ok := tj.done[i]
			if !ok {
				ts := exp.TrialStream(*seed, i)
				g := offline.RandomBipartite(5, 7, ts.Uniform(0.3, 0.9), ts)
				a, b := ts.IntRange(1, 4), ts.IntRange(1, 5)
				_, _, encdOK, err := offline.SolveENCD(g, a, b)
				check(err)
				in, err := offline.ReduceENCDToUnit(g, a, b)
				check(err)
				_, schedOK, err := offline.SolveUnit(in)
				check(err)
				rec = trialRecord{Trial: i, A: encdOK, B: schedOK}
				check(tj.append(rec))
			}
			if rec.A == rec.B {
				agree++
			}
			if rec.A {
				sat++
			}
		}
		check(tj.close())
		fmt.Printf("Theorem 4.1(i): ENCD ≤p OFFLINE-COUPLED(µ=1)\n")
		fmt.Printf("over %d random ENCD instances (%d satisfiable)%s: reduction preserved\n",
			covered, sat, shardNote(shard))
		fmt.Printf("satisfiability on %d/%d instances\n", agree, covered)
		if agree != covered {
			fmt.Println("REDUCTION BROKEN — this is a bug")
			os.Exit(1)
		}

	default:
		fmt.Fprintln(os.Stderr, "offline: unknown -mode", *mode)
		os.Exit(2)
	}
}

func randomInstance(stream *rng.Stream, p, n, m, w int, pUp float64) *offline.Instance {
	up := make([][]bool, p)
	for q := range up {
		up[q] = make([]bool, n)
		for t := range up[q] {
			up[q][t] = stream.Bernoulli(pUp)
		}
	}
	return &offline.Instance{Up: up, M: m, W: w}
}

func check(err error) error {
	if err != nil {
		fmt.Fprintln(os.Stderr, "offline:", err)
		os.Exit(1)
	}
	return nil
}

// interruptExit is the SIGINT/SIGTERM path out of a trial loop: close the
// journal cleanly (every recorded trial is already flushed), tell the
// operator how to continue, and exit with the conventional 130.
func interruptExit(tj *trialJournal, journal string) {
	check(tj.close())
	if journal != "" {
		fmt.Fprintf(os.Stderr, "offline: interrupted — journal %s is intact; rerun with -resume to continue\n", journal)
	} else {
		fmt.Fprintln(os.Stderr, "offline: interrupted — no journal was attached; pass -journal to make batches resumable")
	}
	os.Exit(cli.ExitInterrupted)
}

func shardNote(sh exp.Shard) string {
	if sh.Count <= 1 {
		return ""
	}
	return fmt.Sprintf(", shard %s", sh)
}

// trialRecord is one journaled trial outcome. A/B are mode-specific: for
// greedy, A = exact solver satisfiable, B = greedy solved; for reduce,
// A = ENCD satisfiable, B = reduced schedule satisfiable.
type trialRecord struct {
	Trial int  `json:"trial"`
	A     bool `json:"a"`
	B     bool `json:"b"`
}

// trialHeader stamps the batch a journal belongs to: per-trial seeds
// derive from (Seed, trial), so any two runs with equal headers produce
// identical per-trial outcomes and may share a journal.
type trialHeader struct {
	V      int     `json:"v"`
	Mode   string  `json:"mode"`
	P      int     `json:"p"`
	N      int     `json:"n"`
	M      int     `json:"m"`
	W      int     `json:"w"`
	PUp    float64 `json:"pup"`
	Seed   uint64  `json:"seed"`
	Trials int     `json:"trials"`
	Shard  string  `json:"shard"`
}

// trialJournal is the trial-loop analogue of exp.Journal, on the same
// record log (exp.RecordLog): a JSON header line, then one line per
// trial, flushed per line. Reopening drops a crash-torn tail, as the
// record log's scan defines it. An empty path makes it a no-op.
type trialJournal struct {
	w    *exp.RecordLog
	done map[int]trialRecord
}

func openTrialJournal(path string, resume bool, hdr trialHeader) (*trialJournal, error) {
	tj := &trialJournal{done: map[int]trialRecord{}}
	if path == "" {
		return tj, nil
	}
	var format exp.Format
	var validLen int64
	err := exp.ScanRecords(path,
		func(f exp.Format, raw []byte, end int64) error {
			if !resume {
				return fmt.Errorf("journal %s exists; pass -resume to continue it", path)
			}
			var got trialHeader
			if err := json.Unmarshal(raw, &got); err != nil {
				return fmt.Errorf("journal %s header: %w", path, err)
			}
			if got != hdr {
				return fmt.Errorf("journal %s records a different batch (%+v, want %+v)", path, got, hdr)
			}
			format, validLen = f, end
			return nil
		},
		func(payload []byte, end int64) error {
			var rec trialRecord
			if err := json.Unmarshal(payload, &rec); err != nil {
				return err
			}
			// A trial recorded twice keeps its first outcome, as
			// campaign journals keep a key's first record.
			if _, dup := tj.done[rec.Trial]; !dup {
				tj.done[rec.Trial] = rec
			}
			validLen = end
			return nil
		})
	switch {
	case os.IsNotExist(err):
		var header []byte
		if header, err = json.Marshal(hdr); err == nil {
			tj.w, err = exp.CreateRecordLog(path, exp.FormatJSONL, header)
		}
	case err == nil:
		tj.w, err = exp.OpenRecordLog(path, format, validLen)
	}
	if err != nil {
		return nil, err
	}
	return tj, nil
}

func (tj *trialJournal) append(rec trialRecord) error {
	if tj.w != nil {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if err := tj.w.Append(b); err != nil {
			return err
		}
	}
	tj.done[rec.Trial] = rec
	return nil
}

func (tj *trialJournal) close() error {
	if tj.w == nil {
		return nil
	}
	return tj.w.Close()
}

func max1(x float64) float64 {
	if x < 1 {
		return 1
	}
	return x
}

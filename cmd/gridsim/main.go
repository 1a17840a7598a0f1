// Command gridsim runs one desktop-grid simulation: a paper-style random
// scenario (m tasks, master capacity ncom, speed scale wmin) executed
// under a chosen heuristic, optionally printing the per-slot execution
// trace in the paper's Figure 1 notation.
//
// Usage:
//
//	gridsim [flags]
//
// Examples:
//
//	gridsim -heuristic Y-IE -m 5 -ncom 10 -wmin 2 -seed 1 -trial 3
//	gridsim -heuristic IE -trace          # show the execution trace
//	gridsim -compare -trials 10           # all 17 heuristics side by side
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"tightsched"
	"tightsched/internal/cli"
	"tightsched/internal/trace"
)

func main() {
	var (
		heuristic  = flag.String("heuristic", "Y-IE", "heuristic name (see -list)")
		m          = flag.Int("m", 5, "tasks per iteration")
		ncom       = flag.Int("ncom", 10, "master communication capacity")
		wmin       = flag.Int("wmin", 2, "speed scale: w_q ~ U[wmin, 10*wmin]")
		iterations = flag.Int("iterations", 10, "iterations to complete")
		seed       = flag.Uint64("seed", 42, "scenario seed (platform draw)")
		trial      = flag.Uint64("trial", 1, "trial seed (availability realization)")
		capSlots   = flag.Int64("cap", 1_000_000, "failure cap in slots")
		allUp      = flag.Bool("all-up", false, "start all processors UP")
		showTrace  = flag.Bool("trace", false, "print the execution trace (Figure 1 notation)")
		compare    = flag.Bool("compare", false, "run all 17 heuristics and summarize")
		trials     = flag.Int("trials", 5, "trials for -compare")
		list       = flag.Bool("list", false, "list heuristic names and exit")
		spectral   = flag.Bool("spectral", false, "use the exact closed-form set evaluator (agrees with the series within eps; decisions may differ at that precision)")
	)
	flag.Parse()

	if *list {
		for _, name := range tightsched.Heuristics() {
			fmt.Println(name)
		}
		return
	}

	// Ctrl-C cancels the run context; the simulation stops at the next
	// macro-step boundary instead of grinding on toward a million-slot
	// cap.
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()

	sc := tightsched.PaperScenario(*m, *ncom, *wmin, *seed)
	sc.App.Iterations = *iterations
	session := tightsched.NewSession(
		tightsched.WithCap(*capSlots),
		tightsched.WithAnalytic(tightsched.AnalyticOptions{Spectral: *spectral}),
	)
	var opts []tightsched.Option
	if *allUp {
		opts = append(opts, tightsched.WithInitialAllUp())
	}

	if *compare {
		sums, err := session.Compare(ctx, sc, nil, *trials,
			append(opts, tightsched.WithSeed(*trial))...)
		if err != nil {
			fatal(err)
		}
		sort.Slice(sums, func(i, j int) bool {
			a, b := sums[i], sums[j]
			if a.Fails != b.Fails {
				return a.Fails < b.Fails
			}
			return a.Makespan.Mean < b.Makespan.Mean
		})
		fmt.Printf("scenario: m=%d ncom=%d wmin=%d seed=%d, %d trials, cap=%d\n\n",
			*m, *ncom, *wmin, *seed, *trials, *capSlots)
		fmt.Printf("%-10s %6s %12s %12s %10s %10s\n",
			"heuristic", "fails", "mean", "median", "restarts", "reconfigs")
		for _, s := range sums {
			fmt.Printf("%-10s %6d %12.1f %12.1f %10.2f %10.2f\n",
				s.Heuristic, s.Fails, s.Makespan.Mean, s.Makespan.Median,
				s.MeanRestarts, s.MeanReconfigs)
		}
		return
	}

	var rec *trace.Recorder
	opts = append(opts, tightsched.WithSeed(*trial))
	if *showTrace {
		rec = &trace.Recorder{}
		opts = append(opts, tightsched.WithRecorder(rec))
	}
	res, err := session.Run(ctx, sc, *heuristic, opts...)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("heuristic  : %s\n", res.Heuristic)
	fmt.Printf("makespan   : %d slots", res.Makespan)
	if res.Failed {
		fmt.Printf(" (FAILED at cap; %d/%d iterations)", res.Completed, *iterations)
	}
	fmt.Println()
	fmt.Printf("iterations : %d\n", res.Completed)
	fmt.Printf("restarts   : %d (worker DOWN)\n", res.Restarts)
	fmt.Printf("reconfigs  : %d (proactive switches)\n", res.Reconfigs)
	fmt.Printf("comm slots : %d worker-slots\n", res.CommSlots)
	fmt.Printf("compute    : %d coupled slots\n", res.ComputeSlots)
	fmt.Printf("idle slots : %d (no feasible configuration)\n", res.IdleSlots)
	if rec != nil {
		fmt.Println()
		fmt.Print(trace.Legend())
		fmt.Println()
		fmt.Print(rec.Render())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gridsim:", err)
	os.Exit(1)
}

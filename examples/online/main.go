// Online grid walkthrough: a stream of tightly-coupled applications
// arriving on a shared volatile platform, arbitrated by admission and
// preemption policies, through Session.RunOnline.
//
// Run with:
//
//	go run ./examples/online
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"tightsched"
)

func main() {
	ctx := context.Background()
	session := tightsched.NewSession()

	// The policy registries are open and discoverable, like the
	// heuristic and model registries.
	fmt.Printf("admission policies:  %s\n", strings.Join(tightsched.AdmissionPolicies(), ", "))
	fmt.Printf("preemption policies: %s\n\n", strings.Join(tightsched.PreemptionPolicies(), ", "))

	// An online campaign is an OnlineSweep: a tiered heterogeneous
	// platform, an application shape, an observation horizon, and the
	// axes — arrival processes × admission × preemption × trials. Start
	// from the quick preset and shrink it further so this example runs
	// in a couple of seconds.
	g := tightsched.QuickOnlineSweep()
	g.Horizon = 8_000
	g.Trials = 1
	// Two speed tiers, four processors, two-processor blocks: only two
	// applications fit at once, so the policies actually have to choose.
	g.Tiers = []tightsched.OnlineSpeedTier{{Count: 2, Speed: 1}, {Count: 2, Speed: 2}}
	g.Ncom = 6
	g.AppProcs = 2

	// Replace the preset's arrival axis: one seeded Poisson stream and
	// one recorded trace (a burst of urgent small jobs ahead of two
	// deadline-free heavyweights). Every policy combination will face
	// these exact streams — the instance seed ignores the policy axes,
	// so Table IV compares policies under equal worlds.
	g.Arrivals = []tightsched.OnlineArrival{
		{Kind: "poisson", MeanGap: 150, Apps: 8, WminLo: 1, WminHi: 3, DeadlineFactor: 30},
		{Kind: "trace", Trace: []tightsched.OnlineEntry{
			{T: 0, App: "urgent-0", Wmin: 1, Deadline: 500},
			{T: 30, App: "urgent-1", Wmin: 1, Deadline: 500},
			{T: 60, App: "big-0", Wmin: 3},
			{T: 90, App: "big-1", Wmin: 3},
			{T: 1_500, App: "urgent-2", Wmin: 1, Deadline: 600},
		}},
	}

	// The policy axes are plain fields too. Execution options compose
	// as for offline sweeps (WithOnlineJournal + ResumeOnline would make
	// this crash-safe; cmd/tables -table 4 runs the same campaign).
	g.Admissions = []string{"fcfs", "edf"}
	g.Preemptions = []string{"none", "lowest-priority"}
	res, err := session.RunOnline(ctx, g)
	if err != nil {
		log.Fatal(err)
	}

	// Table IV is the campaign's artifact: per-policy response,
	// slowdown, evictions and deadline misses.
	artifact, err := tightsched.RenderTableArtifact(res, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(artifact)

	// The raw rows are available for programmatic use.
	var missed, apps int
	for _, row := range res.Grid.TableIV() {
		missed += row.Missed
		apps += row.Apps
	}
	fmt.Printf("\n%d application runs across all policy combinations, %d missed deadlines\n", apps, missed)
}

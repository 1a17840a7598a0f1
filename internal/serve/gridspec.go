package serve

import (
	"fmt"

	"tightsched"
)

// This file decodes the grid: block — the declarative form of an online
// multi-application campaign (Session.RunOnline), submitted to the same
// POST /v1/campaigns endpoint as offline sweeps. The block mirrors the
// grid journal header's field names, so a spec, its journal and its
// status report speak one format, exactly as the sweep block does:
//
//	version: 1
//	name: quick-grid
//	preset: quick              # optional: quick | full (defaults profile)
//	grid:                      # required block (mutually exclusive with sweep)
//	  trials: 2                # required without preset
//	  horizon: 20000           # required without preset (slots)
//	  appProcs: 4              # required without preset
//	  ncom: 6                  # required without preset
//	  m: 5                     # required without preset
//	  iterations: 5            # required without preset
//	  heuristic: IE            # default IE
//	  model: diurnal           # default diurnal
//	  seed: 20130522           # default 0
//	  tiers:                   # required without preset (JSON specs only:
//	    - {count: 4, speed: 1} #  lists of mappings are outside the YAML subset)
//	  arrivals:                # required without preset (JSON specs only)
//	    - {kind: poisson, meanGap: 250, apps: 12, wminLo: 1, wminHi: 3, deadlineFactor: 30}
//	    - {kind: trace, trace: [{t: 0, app: a0, wmin: 1, deadline: 700}]}
//	  admissions: [fcfs, edf]  # default: every registered admission policy axis of the preset
//	  preemptions: [none]      # default: the preset's preemption axis
//	run:                       # optional; only workers and journal apply
//	  workers: 0
//	  journal: true
//
// The offline-only runtime knobs (advance, maxLeap, shard, cluster) are
// rejected with their paths: the online engine has no core selector, no
// shardable instance grid and no cluster lease decomposition yet.

// gridFromTree builds the online campaign dimensions, defaulting from
// the preset profile when one is named. Without a preset every axis and
// shape field is required — silence would run a campaign the submitter
// never described.
func gridFromTree(m map[string]any, preset string) (tightsched.OnlineSweep, *SpecError) {
	var g tightsched.OnlineSweep
	switch preset {
	case "quick":
		g = tightsched.QuickOnlineSweep()
	case "full":
		g = tightsched.PaperOnlineSweep()
	default:
		g.Heuristic, g.Model = "IE", "diurnal"
	}
	serr := decodeBlock(m, "grid.", preset != "",
		field{key: "tiers", preset: `[{"count": 4, "speed": 1}]`,
			set: listOf(&g.Tiers, "a list of {count, speed} mappings", itemOf("a {count, speed} mapping", tierFields))},
		field{key: "ncom", set: intTo(&g.Ncom, 1, positiveInt), preset: "6"},
		field{key: "appProcs", set: intTo(&g.AppProcs, 1, positiveInt), preset: "4"},
		field{key: "m", set: intTo(&g.M, 1, positiveInt), preset: "5"},
		field{key: "iterations", set: intTo(&g.Iterations, 1, positiveInt), preset: "5"},
		field{key: "horizon", set: int64To(&g.Horizon, 1, positiveSlots), preset: "20000"},
		field{key: "heuristic", set: stringTo(&g.Heuristic)},
		field{key: "model", set: stringTo(&g.Model)},
		field{key: "seed", set: uint64To(&g.Seed)},
		field{key: "trials", set: intTo(&g.Trials, 1, positiveInt), preset: "2"},
		field{key: "arrivals", preset: `[{"kind": "poisson", "meanGap": 250, ...}]`,
			set: listOf(&g.Arrivals, "a list of arrival-process mappings", itemOf("a mapping", arrivalFields))},
		field{key: "admissions", preset: `[fcfs, sjf, edf]`, set: namesTo(&g.Admissions, tightsched.AdmissionPolicies(),
			"admission policy", fmt.Sprintf("choose from %v", tightsched.AdmissionPolicies()))},
		field{key: "preemptions", preset: `[none, lowest-priority]`, set: namesTo(&g.Preemptions, tightsched.PreemptionPolicies(),
			"preemption policy", fmt.Sprintf("choose from %v", tightsched.PreemptionPolicies()))},
	)
	return g, serr
}

// tierFields is the schema of one heterogeneous speed tier.
func tierFields(t *tightsched.OnlineSpeedTier) []field {
	return []field{
		{key: "count", set: intTo(&t.Count, 1, positiveInt), need: "required (positive integer)"},
		{key: "speed", set: intTo(&t.Speed, 1, positiveInt), need: "required (positive integer)"},
	}
}

// arrivalFields is the schema of one arrival process: a seeded Poisson
// stream or an inline recorded trace.
func arrivalFields(a *tightsched.OnlineArrival) []field {
	return []field{
		{key: "kind", set: stringTo(&a.Kind), need: `required ("poisson" or "trace")`},
		{key: "label", set: stringTo(&a.Label)},
		{key: "meanGap", set: int64To(&a.MeanGap, 0, "")},
		{key: "apps", set: intTo(&a.Apps, 0, "")},
		{key: "wminLo", set: intTo(&a.WminLo, 0, "")},
		{key: "wminHi", set: intTo(&a.WminHi, 0, "")},
		{key: "deadlineFactor", set: floatTo(&a.DeadlineFactor)},
		{key: "trace", set: listOf(&a.Trace, "a list of {t, app, wmin, deadline} mappings", itemOf("a mapping", traceFields))},
	}
}

// traceFields is the schema of one inline recorded arrival.
func traceFields(e *tightsched.OnlineEntry) []field {
	const needApp = "required (non-empty application name)"
	return []field{
		{key: "t", set: int64To(&e.T, 0, "")},
		{key: "app", need: needApp, set: func(v any, path string) (serr *SpecError) {
			e.App, serr = stringOf(v, path)
			if serr == nil && e.App == "" {
				serr = specErr(path, needApp)
			}
			return serr
		}},
		{key: "wmin", set: intTo(&e.Wmin, 0, "")},
		{key: "deadline", set: int64To(&e.Deadline, 0, "")},
	}
}

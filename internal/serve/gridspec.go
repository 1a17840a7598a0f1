package serve

import (
	"encoding/json"
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
	if serr := rejectUnknown(m, "grid.", "tiers", "ncom", "appProcs", "m", "iterations",
		"horizon", "heuristic", "model", "seed", "trials", "arrivals", "admissions", "preemptions"); serr != nil {
		return tightsched.OnlineSweep{}, serr
	}

	var g tightsched.OnlineSweep
	switch preset {
	case "quick":
		g = tightsched.QuickOnlineSweep()
	case "full":
		g = tightsched.PaperOnlineSweep()
	default:
		g = tightsched.OnlineSweep{Heuristic: "IE", Model: "diurnal"}
		for _, req := range []struct {
			key     string
			example string
		}{
			{"tiers", `[{"count": 4, "speed": 1}]`},
			{"ncom", "6"},
			{"appProcs", "4"},
			{"m", "5"},
			{"iterations", "5"},
			{"horizon", "20000"},
			{"trials", "2"},
			{"arrivals", `[{"kind": "poisson", "meanGap": 250, ...}]`},
			{"admissions", `[fcfs, sjf, edf]`},
			{"preemptions", `[none, lowest-priority]`},
		} {
			if _, ok := m[req.key]; !ok {
				return tightsched.OnlineSweep{}, specErr("grid."+req.key,
					"required without a preset (e.g. %s); or set preset: quick|full", req.example)
			}
		}
	}

	if raw, ok := m["tiers"]; ok {
		tiers, serr := tiersFromTree(raw, "grid.tiers")
		if serr != nil {
			return tightsched.OnlineSweep{}, serr
		}
		g.Tiers = tiers
	}
	for _, f := range []struct {
		key  string
		dest *int
	}{
		{"ncom", &g.Ncom},
		{"appProcs", &g.AppProcs},
		{"m", &g.M},
		{"iterations", &g.Iterations},
		{"trials", &g.Trials},
	} {
		if v, present, serr := positiveIntField(m, f.key, "grid."+f.key); serr != nil {
			return tightsched.OnlineSweep{}, serr
		} else if present {
			*f.dest = v
		}
	}
	if v, present, serr := int64Field(m, "horizon", "grid.horizon"); serr != nil {
		return tightsched.OnlineSweep{}, serr
	} else if present {
		if v <= 0 {
			return tightsched.OnlineSweep{}, specErr("grid.horizon", "must be a positive slot count, got %d", v)
		}
		g.Horizon = v
	}
	if v, present, serr := stringField(m, "heuristic", "grid.heuristic"); serr != nil {
		return tightsched.OnlineSweep{}, serr
	} else if present {
		g.Heuristic = v
	}
	if v, present, serr := stringField(m, "model", "grid.model"); serr != nil {
		return tightsched.OnlineSweep{}, serr
	} else if present {
		g.Model = v
	}
	if v, present, serr := uint64Field(m, "seed", "grid.seed"); serr != nil {
		return tightsched.OnlineSweep{}, serr
	} else if present {
		g.Seed = v
	}
	if raw, ok := m["arrivals"]; ok {
		arrivals, serr := arrivalsFromTree(raw, "grid.arrivals")
		if serr != nil {
			return tightsched.OnlineSweep{}, serr
		}
		g.Arrivals = arrivals
	}
	if v, present, serr := stringListField(m, "admissions", "grid.admissions"); serr != nil {
		return tightsched.OnlineSweep{}, serr
	} else if present {
		for i, name := range v {
			if !registeredName(tightsched.AdmissionPolicies(), name) {
				return tightsched.OnlineSweep{}, specErr(fmt.Sprintf("grid.admissions[%d]", i),
					"unknown admission policy %q (choose from %v)", name, tightsched.AdmissionPolicies())
			}
		}
		g.Admissions = v
	}
	if v, present, serr := stringListField(m, "preemptions", "grid.preemptions"); serr != nil {
		return tightsched.OnlineSweep{}, serr
	} else if present {
		for i, name := range v {
			if !registeredName(tightsched.PreemptionPolicies(), name) {
				return tightsched.OnlineSweep{}, specErr(fmt.Sprintf("grid.preemptions[%d]", i),
					"unknown preemption policy %q (choose from %v)", name, tightsched.PreemptionPolicies())
			}
		}
		g.Preemptions = v
	}
	return g, nil
}

// tiersFromTree parses the heterogeneous speed profile: a list of
// {count, speed} mappings.
func tiersFromTree(raw any, path string) ([]tightsched.OnlineSpeedTier, *SpecError) {
	list, ok := raw.([]any)
	if !ok {
		return nil, specErr(path, "must be a list of {count, speed} mappings, got %s", describeValue(raw))
	}
	if len(list) == 0 {
		return nil, specErr(path, "must not be empty")
	}
	tiers := make([]tightsched.OnlineSpeedTier, len(list))
	for i, item := range list {
		ipath := fmt.Sprintf("%s[%d]", path, i)
		tm, ok := item.(map[string]any)
		if !ok {
			return nil, specErr(ipath, "must be a {count, speed} mapping, got %s", describeValue(item))
		}
		if serr := rejectUnknown(tm, ipath+".", "count", "speed"); serr != nil {
			return nil, serr
		}
		for _, f := range []struct {
			key  string
			dest *int
		}{
			{"count", &tiers[i].Count},
			{"speed", &tiers[i].Speed},
		} {
			v, present, serr := positiveIntField(tm, f.key, ipath+"."+f.key)
			if serr != nil {
				return nil, serr
			}
			if !present {
				return nil, specErr(ipath+"."+f.key, "required (positive integer)")
			}
			*f.dest = v
		}
	}
	return tiers, nil
}

// arrivalsFromTree parses the arrival-process axis: a list of mappings,
// each a seeded Poisson stream or an inline recorded trace.
func arrivalsFromTree(raw any, path string) ([]tightsched.OnlineArrival, *SpecError) {
	list, ok := raw.([]any)
	if !ok {
		return nil, specErr(path, "must be a list of arrival-process mappings, got %s", describeValue(raw))
	}
	if len(list) == 0 {
		return nil, specErr(path, "must not be empty")
	}
	arrivals := make([]tightsched.OnlineArrival, len(list))
	for i, item := range list {
		ipath := fmt.Sprintf("%s[%d]", path, i)
		am, ok := item.(map[string]any)
		if !ok {
			return nil, specErr(ipath, "must be a mapping, got %s", describeValue(item))
		}
		if serr := rejectUnknown(am, ipath+".", "kind", "label", "meanGap", "apps",
			"wminLo", "wminHi", "deadlineFactor", "trace"); serr != nil {
			return nil, serr
		}
		a := &arrivals[i]
		kind, present, serr := stringField(am, "kind", ipath+".kind")
		if serr != nil {
			return nil, serr
		}
		if !present {
			return nil, specErr(ipath+".kind", `required ("poisson" or "trace")`)
		}
		a.Kind = kind
		if a.Label, _, serr = stringField(am, "label", ipath+".label"); serr != nil {
			return nil, serr
		}
		if v, present, serr := int64Field(am, "meanGap", ipath+".meanGap"); serr != nil {
			return nil, serr
		} else if present {
			a.MeanGap = v
		}
		for _, f := range []struct {
			key  string
			dest *int
		}{
			{"apps", &a.Apps},
			{"wminLo", &a.WminLo},
			{"wminHi", &a.WminHi},
		} {
			if v, present, serr := intField(am, f.key, ipath+"."+f.key); serr != nil {
				return nil, serr
			} else if present {
				*f.dest = v
			}
		}
		if v, present, serr := floatField(am, "deadlineFactor", ipath+".deadlineFactor"); serr != nil {
			return nil, serr
		} else if present {
			a.DeadlineFactor = v
		}
		if rawTrace, ok := am["trace"]; ok {
			entries, serr := traceFromTree(rawTrace, ipath+".trace")
			if serr != nil {
				return nil, serr
			}
			a.Trace = entries
		}
	}
	return arrivals, nil
}

// traceFromTree parses an inline recorded arrival log: a list of
// {t, app, wmin, deadline} mappings.
func traceFromTree(raw any, path string) ([]tightsched.OnlineEntry, *SpecError) {
	list, ok := raw.([]any)
	if !ok {
		return nil, specErr(path, "must be a list of {t, app, wmin, deadline} mappings, got %s", describeValue(raw))
	}
	if len(list) == 0 {
		return nil, specErr(path, "must not be empty")
	}
	entries := make([]tightsched.OnlineEntry, len(list))
	for i, item := range list {
		ipath := fmt.Sprintf("%s[%d]", path, i)
		em, ok := item.(map[string]any)
		if !ok {
			return nil, specErr(ipath, "must be a mapping, got %s", describeValue(item))
		}
		if serr := rejectUnknown(em, ipath+".", "t", "app", "wmin", "deadline"); serr != nil {
			return nil, serr
		}
		e := &entries[i]
		if v, present, serr := int64Field(em, "t", ipath+".t"); serr != nil {
			return nil, serr
		} else if present {
			e.T = v
		}
		app, present, serr := stringField(em, "app", ipath+".app")
		if serr != nil {
			return nil, serr
		}
		if !present || app == "" {
			return nil, specErr(ipath+".app", "required (non-empty application name)")
		}
		e.App = app
		if v, present, serr := intField(em, "wmin", ipath+".wmin"); serr != nil {
			return nil, serr
		} else if present {
			e.Wmin = v
		}
		if v, present, serr := int64Field(em, "deadline", ipath+".deadline"); serr != nil {
			return nil, serr
		} else if present {
			e.Deadline = v
		}
	}
	return entries, nil
}

// registeredName reports whether name is in the sorted registry listing.
func registeredName(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// floatField types a numeric field as float64 (integers accepted).
func floatField(m map[string]any, key, path string) (float64, bool, *SpecError) {
	raw, ok := m[key]
	if !ok {
		return 0, false, nil
	}
	num, ok := raw.(json.Number)
	if !ok {
		return 0, true, specErr(path, "must be a number, got %s", describeValue(raw))
	}
	v, err := num.Float64()
	if err != nil {
		return 0, true, specErr(path, "must be a number, got %s", num.String())
	}
	return v, true, nil
}

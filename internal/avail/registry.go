package avail

import (
	"tightsched/internal/markov"
	"tightsched/internal/registry"
)

// This file is the open availability-model registry: the models resolvable
// by name — in command-line flags, journal headers and the façade — live
// behind one string-keyed table. The three built-ins self-register at
// package init; a Register call from outside this package makes a new
// ground-truth model selectable per run, per platform and per sweep axis,
// and lets journaled campaigns that used it resume headlessly.

// Factory returns a fresh model instance. Builtin calls it once per
// resolution, so stateful models (calibration memos) start clean for every
// caller that resolves the name.
type Factory func() Model

var models = registry.New("avail", "model", "model", registry.Named[Model])

// Register makes a model constructible by name through Builtin (and
// therefore through journal resume and the façade's ModelByName). The
// factory is invoked once immediately: its model's Name() must equal the
// registered name, so that experiment tables, journal specs and resolution
// agree on the label. Duplicate names — built-ins included — error.
func Register(name string, f Factory) error { return models.Register(name, f) }

// MustRegister is Register that panics on error, for init-time
// registration of a package's own models.
func MustRegister(name string, f Factory) { models.MustRegister(name, f) }

// Names returns every registered model name, sorted. The slice is a fresh
// copy: callers may mutate it freely.
func Names() []string { return models.Names() }

// Builtin returns a fresh registered model by name. Out of the box:
//
//	markov     — the paper's Markov chains (exact believed matrices)
//	semimarkov — heavy-tailed Weibull(0.6) UP holding times with fitted
//	             believed matrices (the Section VII.B future-work model)
//	lognormal  — Log-Normal holding times in every state (sigma 0.75)
//
// Use it to resolve command-line model selections; library callers can
// also construct and tune models directly, or Register their own.
func Builtin(name string) (Model, error) {
	f, err := models.Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(), nil
}

func init() {
	MustRegister("markov", func() Model { return MarkovModel{} })
	MustRegister("semimarkov", func() Model { return NewSemiMarkov(0.6) })
	MustRegister("lognormal", func() Model {
		return &SemiMarkovModel{
			Label: "lognormal",
			Hold: [markov.NumStates]HoldingSpec{
				{Dist: DistLogNormal, Shape: 0.75},
				{Dist: DistLogNormal, Shape: 0.75},
				{Dist: DistLogNormal, Shape: 0.75},
			},
		}
	})
}

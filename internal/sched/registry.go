package sched

import "tightsched/internal/registry"

// This file is the open heuristic registry: every heuristic the simulator
// can run by name — the paper's 17, the extension baselines, and anything
// a user plugs in — lives behind one string-keyed table. The built-in
// heuristics self-register at package init, so Build, sweep validation
// and the façade's name listings all read the same source of truth, and a
// Register call from outside this package makes a new policy available to
// Run, Compare and every sweep axis without touching internal/sched.

// Factory constructs a heuristic instance over one run's environment. A
// factory is called once per simulation run; the returned heuristic may
// be stateful (most built-ins carry scratch buffers) and is never shared
// across runs.
type Factory func(env *Env) (Heuristic, error)

var heuristics = registry.New[Factory]("sched", "heuristic", "heuristic", nil)

// Register makes a heuristic constructible by name through Build (and
// therefore through every layer above: simulator configs, sweep axes, the
// façade Session). It errors on an empty name, a nil factory, or a name
// already taken — built-in names included.
func Register(name string, f Factory) error { return heuristics.Register(name, f) }

// MustRegister is Register that panics on error, for init-time
// registration of a package's own heuristics.
func MustRegister(name string, f Factory) { heuristics.MustRegister(name, f) }

// Lookup returns the registered factory for the name.
func Lookup(name string) (Factory, bool) {
	f, err := heuristics.Lookup(name)
	return f, err == nil
}

// Registered returns the names of every registered heuristic, sorted. The
// slice is a fresh copy: callers may mutate it freely.
func Registered() []string { return heuristics.Names() }

// init registers the paper's 17 heuristics and the extension baselines,
// so the registry is the single lookup path for every name.
func init() {
	for _, name := range Names() {
		MustRegister(name, builtinFactory(name))
	}
	for _, name := range ExtendedNames() {
		MustRegister(name, builtinFactory(name))
	}
}

// builtinFactory adapts the built-in constructors to the Factory shape.
func builtinFactory(name string) Factory {
	return func(env *Env) (Heuristic, error) { return buildBuiltin(name, env) }
}

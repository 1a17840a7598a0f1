// Package sim implements the discrete-event simulator the paper's
// evaluation (Section VII) is built on, executing the
// application/platform model of Section III exactly — 3-state processor
// availability, the master's bounded multi-port bandwidth, program and
// per-task data downloads, RECLAIMED suspend/resume, DOWN
// restart-from-scratch, and tightly-coupled computation that advances
// only when every enrolled worker is UP.
//
// Two byte-identical time-advance cores execute that model (Config.
// Advance): the production trial-group loop (runGroup in batch.go, over
// the homogeneous-span methods of leap.go), whose cost scales with
// availability transitions and phase events and which runs a solo Run as
// a group of one and a RunBatch cell with shared walks and builds; and
// the reference slot-stepped loop (engine.go), which pays full
// bookkeeping every slot and serves as the differential oracle. See
// DESIGN.md, "Time advance".
package sim

import (
	"tightsched/internal/avail"
	"tightsched/internal/markov"
)

// The engine consumes availability through the avail subsystem: models
// (avail.Model) describe how availability evolves and are resolved into
// per-trial providers at run setup; the aliases below keep the sim-level
// names that tests, examples and external callers use.

// StateProvider feeds the engine the availability state of every
// processor, slot by slot. The engine calls States with consecutive slot
// values starting at 0. Providers let tests and examples script exact
// availability patterns (e.g. the paper's Figure 1) while experiments use
// an avail.Model.
type StateProvider = avail.StateProvider

// ProviderFunc adapts a function to the StateProvider interface, so
// callers can plug arbitrary availability processes into the engine.
type ProviderFunc = avail.ProviderFunc

// ScriptProvider replays a fixed availability script: Script[t][q] is the
// state of processor q at slot t. Slots beyond the script reuse its last
// row.
type ScriptProvider = avail.ScriptProvider

// ParseScript converts a compact textual availability script into rows:
// one string per processor, one character per slot, 'u' = UP,
// 'r' = RECLAIMED, 'd' = DOWN. All strings must have equal length.
func ParseScript(perProc []string) ([][]markov.State, error) {
	return avail.ParseScript(perProc)
}

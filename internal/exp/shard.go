package exp

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
)

// Shard names one deterministic slice of a campaign's instance grid:
// shard i of n owns every coordinate whose canonical index (Sweep.Coords
// order) is congruent to i mod n. The partition is round-robin, so shards
// are balanced to within one coordinate, and because each coordinate
// keeps its full heuristic fan-out, every shard journal is internally
// consistent for same-realization comparisons. The zero value (and 0/1)
// means the whole campaign. Indices are 0-based: valid shards of a 3-way
// split are 0/3, 1/3 and 2/3.
type Shard struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// ParseShard parses the command-line form "i/n" (0-based, i < n).
func ParseShard(s string) (Shard, error) {
	i, n, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("exp: shard %q is not of the form i/n", s)
	}
	idx, err1 := strconv.Atoi(strings.TrimSpace(i))
	cnt, err2 := strconv.Atoi(strings.TrimSpace(n))
	if err1 != nil || err2 != nil {
		return Shard{}, fmt.Errorf("exp: shard %q is not of the form i/n", s)
	}
	sh := Shard{Index: idx, Count: cnt}
	// Explicit command-line input never means "whole campaign": "0/0"
	// is a scripting bug (unset shard count), not the zero value, so it
	// must not slip through Validate's zero-value exemption.
	if cnt < 1 {
		return Shard{}, fmt.Errorf("exp: invalid shard %q (count must be >= 1)", s)
	}
	if err := sh.Validate(); err != nil {
		return Shard{}, err
	}
	return sh.normalize(), nil
}

// String renders the shard as "i/n".
func (sh Shard) String() string {
	n := sh.normalize()
	return fmt.Sprintf("%d/%d", n.Index, n.Count)
}

// Validate checks the shard coordinates (the zero value is valid: whole
// campaign).
func (sh Shard) Validate() error {
	if sh.Count == 0 && sh.Index == 0 {
		return nil
	}
	if sh.Count < 1 || sh.Index < 0 || sh.Index >= sh.Count {
		return fmt.Errorf("exp: invalid shard %d/%d (want 0-based index < count)", sh.Index, sh.Count)
	}
	return nil
}

// normalize maps the zero value onto the canonical whole-campaign 0/1.
func (sh Shard) normalize() Shard {
	if sh.Count == 0 {
		return Shard{Index: 0, Count: 1}
	}
	return sh
}

// Covers reports whether this shard owns the item at the given canonical
// index — coordinate index for sweep grids, trial index for any other
// deterministic per-index workload that wants the same disjoint
// round-robin split (e.g. cmd/offline's trial batches).
func (sh Shard) Covers(idx int) bool {
	if sh.Count <= 1 {
		return true
	}
	return idx%sh.Count == sh.Index
}

// owned returns how many of the n items at indexes 0 to n−1 the
// (normalized) shard covers.
func (sh Shard) owned(n int) int {
	if n <= sh.Index {
		return 0
	}
	return (n-sh.Index-1)/sh.Count + 1
}

// Shard returns the (model, point, trial) coordinates owned by shard i of
// n — n disjoint, jointly exhaustive, deterministic slices of the grid,
// for splitting a campaign across machines or CI jobs. Recombine the
// shards' journals with MergeJournals.
func (s *Sweep) Shard(i, n int) ([]Coord, error) {
	sh := Shard{Index: i, Count: n}
	if err := sh.Validate(); err != nil {
		return nil, err
	}
	var out []Coord
	for idx, c := range s.Coords() {
		if sh.Covers(idx) {
			out = append(out, c)
		}
	}
	return out, nil
}

// MergeJournals loads shard journals read-only, verifies they stamp the
// identical campaign, and merges them into one complete Result with
// canonically ordered instances. Within a file a key's first record
// wins, as for every journal reader; across files an agreeing duplicate
// is skipped (determinism guarantees honest journals agree) and a
// conflicting one is an error. Incomplete joint coverage of the instance
// grid (a missing shard, an interrupted shard that was never resumed) is
// an error naming the missing count; LoadJournal reads one shard alone.
func MergeJournals(paths ...string) (*Result, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("exp: no journals to merge")
	}
	var base SweepSpec
	var merged *doneIndex[Key, InstanceResult]
	// A conflict in a file's last record would pass for a torn tail
	// (ScanRecords drops a final record its callback refuses), so it is
	// kept here and reported after the scan.
	var conflict error
	for i, path := range paths {
		err := scanDistinct(sweepKind, path,
			func(_ Format, h journalHeader[SweepSpec]) error {
				if i == 0 {
					// One index over the whole campaign: the zero shard.
					base, merged = h.Spec, newIndex[InstanceResult](sweepKind, journalHeader[SweepSpec]{Spec: h.Spec})
				} else if !reflect.DeepEqual(h.Spec, base) {
					return fmt.Errorf("exp: journal %s records a different campaign than %s", path, paths[0])
				}
				return nil
			},
			func(inst InstanceResult, _ int) error {
				k := inst.Key()
				p := merged.position(k)
				if prev, dup := merged.get(p, k); !dup {
					merged.put(p, k, inst)
				} else if prev != inst {
					conflict = fmt.Errorf("exp: conflicting results for %+v: %+v vs %+v", k, prev, inst)
				}
				return conflict
			})
		if conflict != nil {
			return nil, conflict
		}
		if err != nil {
			return nil, err
		}
	}
	expected := len(base.Models) * len(base.Ncoms) * len(base.Wmins) *
		base.Scenarios * base.Trials * len(base.Heuristics)
	if got := merged.len(); got != expected {
		return nil, fmt.Errorf("exp: merged journals cover %d of %d instances (missing shard or unfinished run?)", got, expected)
	}
	instances := merged.appendAll(make([]InstanceResult, 0, expected))
	sortInstances(instances)
	return &Result{Sweep: base.sweepDims(), Instances: instances}, nil
}

package exp

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tightsched/internal/grid"
	"tightsched/internal/platform"
)

// The four journals under testdata/ pin the on-disk format: one tiny
// sweep and one tiny grid campaign, each journaled in JSONL and in
// binary. They were generated at commit 59fb8f5, before the sweep and
// grid journal stacks were merged into one, by calling writeFixture for
// each fixtureCases entry (path = testdata/<name>) from a throwaway test
// in that tree. Both campaigns run on one worker, so the record order —
// and with it every byte — is deterministic.

// fixtureSweep is the sweep fixture's campaign: two trials of one point
// under two heuristics, four records.
func fixtureSweep() Sweep {
	return Sweep{
		M:          3,
		Ncoms:      []int{5},
		Wmins:      []int{1},
		Scenarios:  1,
		Trials:     2,
		P:          8,
		Iterations: 2,
		Cap:        50_000,
		Seed:       99,
		Heuristics: []string{"IE", "RANDOM"},
		Workers:    1,
	}
}

// fixtureGrid is the grid fixture's campaign: the recorded arrival trace
// under one admission and both preemption policies, two records.
func fixtureGrid() GridSweep {
	return GridSweep{GridSpec: GridSpec{
		Tiers:       []platform.SpeedTier{{Count: 2, Speed: 1}, {Count: 2, Speed: 2}, {Count: 4, Speed: 4}},
		Ncom:        6,
		AppProcs:    4,
		M:           3,
		Iterations:  2,
		Horizon:     3000,
		Heuristic:   "IE",
		Model:       "diurnal",
		Seed:        99,
		Trials:      1,
		Arrivals:    []grid.ArrivalSpec{{Kind: grid.KindTrace, Trace: QuickOnlineTrace()}},
		Admissions:  []string{"fcfs"},
		Preemptions: []string{"none", "lowest-priority"},
	}, Workers: 1}
}

// fixtureCases lists the committed journals; twin is the same campaign
// in the other format.
var fixtureCases = []struct {
	name, twin string
	grid       bool
	format     Format
}{
	{"sweep.jsonl", "sweep.bin", false, FormatJSONL},
	{"sweep.bin", "sweep.jsonl", false, FormatBinary},
	{"grid.jsonl", "grid.bin", true, FormatJSONL},
	{"grid.bin", "grid.jsonl", true, FormatBinary},
}

// writeFixture journals one fixture campaign to path.
func writeFixture(path string, online bool, format Format) error {
	if online {
		g := fixtureGrid()
		j, err := CreateGridJournalFormat(path, &g, format)
		if err != nil {
			return err
		}
		if _, err := RunGrid(context.Background(), g, j, nil, nil); err != nil {
			j.Close()
			return err
		}
		return j.Close()
	}
	s := fixtureSweep()
	j, err := CreateJournalFormat(path, s, Shard{}, format)
	if err != nil {
		return err
	}
	if _, err := Run(context.Background(), s, RunOptions{Journal: j}); err != nil {
		j.Close()
		return err
	}
	return j.Close()
}

// TestJournalFixturesByteIdentical: the same campaigns journal to the
// committed bytes, and the committed files resume, load, aggregate and
// convert to the results a fresh run gives.
func TestJournalFixturesByteIdentical(t *testing.T) {
	sweepRef, err := Run(context.Background(), fixtureSweep(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gridRef, err := RunGrid(t.Context(), fixtureGrid(), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range fixtureCases {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.name))
			if err != nil {
				t.Fatal(err)
			}
			tmp := t.TempDir()
			fresh := filepath.Join(tmp, "fresh")
			if err := writeFixture(fresh, c.grid, c.format); err != nil {
				t.Fatal(err)
			}
			if got, _ := os.ReadFile(fresh); !bytes.Equal(got, want) {
				t.Fatalf("journal bytes differ from testdata/%s:\n got %q\nwant %q", c.name, got, want)
			}

			// Resume a copy of the committed file: pure replay.
			committed := filepath.Join(tmp, "committed")
			if err := os.WriteFile(committed, want, 0o644); err != nil {
				t.Fatal(err)
			}
			if c.grid {
				res, err := ResumeGrid(t.Context(), committed, 0, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Instances, gridRef.Instances) {
					t.Fatal("resumed grid instances differ from a fresh run")
				}
				agg, err := AggregateGridJournal(committed)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(agg.Grid.Instances, gridRef.Instances) {
					t.Fatal("loaded grid instances differ from a fresh run")
				}
				if got, want := FormatTableIV(agg.Grid.TableIV()), FormatTableIV(gridRef.TableIV()); got != want {
					t.Fatalf("aggregated Table IV differs:\n%s\nwant\n%s", got, want)
				}
			} else {
				res, err := Resume(context.Background(), committed, RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Instances, sweepRef.Instances) {
					t.Fatal("resumed sweep instances differ from a fresh run")
				}
				loaded, _, err := LoadJournal(committed)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(loaded.Instances, sweepRef.Instances) {
					t.Fatal("loaded sweep instances differ from a fresh run")
				}
				agg, err := AggregateJournal(committed)
				if err != nil {
					t.Fatal(err)
				}
				got, err := agg.Table(ReferenceHeuristic)
				if err != nil {
					t.Fatal(err)
				}
				want, err := sweepRef.Table(ReferenceHeuristic)
				if err != nil {
					t.Fatal(err)
				}
				if FormatTable(got) != FormatTable(want) {
					t.Fatalf("aggregated table differs:\n%s\nwant\n%s", FormatTable(got), FormatTable(want))
				}
			}

			// Converting to the other format reproduces that fixture.
			other := FormatBinary
			if c.format == FormatBinary {
				other = FormatJSONL
			}
			converted := filepath.Join(tmp, "converted")
			if err := ConvertJournal(filepath.Join("testdata", c.name), converted, other); err != nil {
				t.Fatal(err)
			}
			got, _ := os.ReadFile(converted)
			if twin, _ := os.ReadFile(filepath.Join("testdata", c.twin)); !bytes.Equal(got, twin) {
				t.Fatalf("converting testdata/%s to %s does not reproduce testdata/%s", c.name, other, c.twin)
			}
		})
	}
}

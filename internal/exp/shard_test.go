package exp

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

func TestParseShard(t *testing.T) {
	sh, err := ParseShard("1/3")
	if err != nil {
		t.Fatal(err)
	}
	if sh != (Shard{Index: 1, Count: 3}) {
		t.Fatalf("parsed %+v", sh)
	}
	if sh.String() != "1/3" {
		t.Fatalf("String = %q", sh.String())
	}
	for _, bad := range []string{"", "3", "3/3", "-1/3", "a/b", "1/0", "0/0"} {
		if _, err := ParseShard(bad); err == nil {
			t.Fatalf("ParseShard(%q) accepted", bad)
		}
	}
	if (Shard{}).Validate() != nil {
		t.Fatal("zero shard should be valid (whole campaign)")
	}
	if (Shard{}).String() != "0/1" {
		t.Fatalf("zero shard renders %q", Shard{}.String())
	}
}

// TestShardPartition: n shards are disjoint and jointly exhaustive, in
// canonical order, balanced to within one coordinate.
func TestShardPartition(t *testing.T) {
	s := tinySweep([]string{"IE"})
	all := s.Coords()
	if len(all) != s.InstanceCount() {
		t.Fatalf("Coords has %d entries, want %d", len(all), s.InstanceCount())
	}
	const n = 3
	seen := map[Coord]int{}
	var sizes []int
	for i := 0; i < n; i++ {
		part, err := s.Shard(i, n)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(part))
		for _, c := range part {
			seen[c]++
		}
	}
	if len(seen) != len(all) {
		t.Fatalf("shards cover %d coords, want %d", len(seen), len(all))
	}
	for c, k := range seen {
		if k != 1 {
			t.Fatalf("coord %+v owned by %d shards", c, k)
		}
	}
	for _, sz := range sizes {
		if sz < len(all)/n || sz > len(all)/n+1 {
			t.Fatalf("unbalanced shard sizes %v for %d coords", sizes, len(all))
		}
	}
	if _, err := s.Shard(3, 3); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

// TestShardedJournalsMergeToFullRun is the CI recipe: run each shard into
// its own journal (as n CI jobs would), merge the journals, and require
// the exact instances and tables of a single-machine run.
func TestShardedJournalsMergeToFullRun(t *testing.T) {
	s := tinySweep([]string{"IE", "Y-IE", "RANDOM"})
	full, err := Run(context.Background(), s, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fullRows, err := full.Table(ReferenceHeuristic)
	if err != nil {
		t.Fatal(err)
	}

	const n = 3
	dir := t.TempDir()
	var paths []string
	for i := 0; i < n; i++ {
		path := filepath.Join(dir, "shard.journal."+string(rune('0'+i)))
		sh := Shard{Index: i, Count: n}
		j, err := CreateJournal(path, s, sh)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), s, RunOptions{Journal: j, Shard: sh, DiscardInstances: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Instances != nil {
			t.Fatal("shard run kept instances despite DiscardInstances")
		}
		j.Close()
		// Merging is read-only: it must work on write-protected journals
		// (e.g. CI artifacts) and never truncate or append to its inputs.
		if err := os.Chmod(path, 0o444); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}

	merged, err := MergeJournals(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Instances) != len(full.Instances) {
		t.Fatalf("merged %d instances, want %d", len(merged.Instances), len(full.Instances))
	}
	for i := range merged.Instances {
		if merged.Instances[i] != full.Instances[i] {
			t.Fatalf("instance %d differs after shard+merge:\n%+v\n%+v",
				i, merged.Instances[i], full.Instances[i])
		}
	}
	rows, err := merged.Table(ReferenceHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	if FormatTable(rows) != FormatTable(fullRows) {
		t.Fatal("merged tables differ from the single-run tables")
	}

	// Dropping a shard must be caught, not silently under-aggregated.
	if _, err := MergeJournals(paths[:n-1]...); err == nil {
		t.Fatal("incomplete shard set merged without error")
	}
}

// TestMergeConflictRejected: identical keys with different outcomes mean
// someone journaled a different world.
func TestMergeConflictRejected(t *testing.T) {
	s := tinySweep([]string{"IE"})
	a, err := Run(context.Background(), s, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := &Result{Sweep: a.Sweep, Instances: append([]InstanceResult(nil), a.Instances...)}
	b.Instances[0].Makespan++
	if _, err := Merge(a, b); err == nil {
		t.Fatal("conflicting duplicate merged without error")
	}
	// Agreeing duplicates dedupe fine.
	merged, err := Merge(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Instances) != len(a.Instances) {
		t.Fatalf("self-merge has %d instances, want %d", len(merged.Instances), len(a.Instances))
	}
}

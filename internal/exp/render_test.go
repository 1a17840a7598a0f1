package exp

import (
	"context"
	"strings"
	"testing"
)

// TestRenderTableArtifact pins the shared artifact renderer's contract:
// the byte string cmd/tables prints and the daemon serves. The content
// itself is covered by the aggregation tests; here we check the
// artifact's framing, the m gate, and the error cases.
func TestRenderTableArtifact(t *testing.T) {
	if _, err := ArtifactM(5); err == nil || !strings.Contains(err.Error(), "no Table 5") {
		t.Errorf("ArtifactM(5) = %v, want unknown-table error", err)
	}
	if m, err := ArtifactM(4); err != nil || m != 0 {
		t.Errorf("ArtifactM(4) = %d, %v, want the unconstrained online table", m, err)
	}

	sweep := Sweep{
		M: 5, Ncoms: []int{5}, Wmins: []int{1}, Scenarios: 1, Trials: 1,
		P: 8, Iterations: 2, Cap: 50_000, Seed: 3,
		Heuristics: []string{"IE", "Y-IE", "RANDOM"},
	}
	res, err := Run(context.Background(), sweep, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	artifact, err := RenderTableArtifact(res, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(artifact, "\nTable I — results with m = 5 tasks (reference: IE)\n\n") {
		t.Errorf("Table I framing wrong:\n%q", artifact[:min(len(artifact), 80)])
	}
	if !strings.Contains(artifact, "robustness:") {
		t.Error("Table I artifact lacks the robustness line")
	}
	for _, h := range sweep.Heuristics {
		if !strings.Contains(artifact, h) {
			t.Errorf("artifact missing heuristic %s", h)
		}
	}
	// Rendering is pure: same result, same bytes.
	again, err := RenderTableArtifact(res, 1)
	if err != nil || again != artifact {
		t.Error("rendering is not deterministic over an identical result")
	}

	three, err := RenderTableArtifact(res, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(three, "Table III — results with m = 5 tasks per availability model") {
		t.Errorf("Table III framing wrong:\n%q", three[:min(len(three), 100)])
	}

	// An m = 5 campaign cannot render the m = 10 Table II.
	if _, err := RenderTableArtifact(res, 2); err == nil || !strings.Contains(err.Error(), "m=5") {
		t.Errorf("Table II over an m=5 result = %v, want m-mismatch error", err)
	}

	// A result missing the reference heuristic renders nothing.
	noRef := &Result{Sweep: sweep, Instances: nil}
	noRef.Sweep.Heuristics = []string{"Y-IE"}
	if _, err := RenderTableArtifact(noRef, 1); err == nil {
		t.Error("render without the reference heuristic should error")
	}
}

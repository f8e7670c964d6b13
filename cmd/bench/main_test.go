package main

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// TestRunAllFigures drives every sim-ms table once at toy scale — cmd/bench
// is the only harness that prints them — and checks that a mistyped -fig is
// a usage error rather than an empty, successful run.
func TestRunAllFigures(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "all", "-users", "200", "-carts-per-user", "20"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for heading, want := range map[string]int{
		"Figure 3 — ":    1,
		"Figure 4 — ":    2, // in-memory view and DFS table
		"§7 note — ":     1,
		"Ablations — ":   1,
		"total sim-ms\n": 3,
	} {
		if n := strings.Count(got, heading); n != want {
			t.Errorf("%q appears %d times, want %d:\n%s", heading, n, want, got)
		}
	}

	err := run([]string{"-fig", "nope"}, io.Discard)
	if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), accepted) {
		t.Errorf("run(-fig nope) = %v, want a usage error listing %q", err, accepted)
	}
}

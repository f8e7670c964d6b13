package main

import (
	"testing"

	"sqlml/internal/experiments"
)

// TestRunInSQLStream drives one insql+stream pipeline and an SVM fit at a
// tiny scale, so a command that cannot boot or finish a run fails tier-1.
func TestRunInSQLStream(t *testing.T) {
	err := run("insql+stream", "svm", 20, 3, experiments.PaperQuery,
		"abandoned", "gender,abandoned", "gender", 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := run("no-such-approach", "svm", 20, 3, experiments.PaperQuery,
		"abandoned", "gender,abandoned", "gender", 2, false); err == nil {
		t.Error("unknown approach accepted")
	}
}

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunShowTables boots the shell on a tiny warehouse and runs one
// statement from stdin: a shell that cannot start (a UDF registered twice,
// a table that fails to load) fails here instead of at a user's prompt.
func TestRunShowTables(t *testing.T) {
	dir := t.TempDir()
	inPath, outPath := filepath.Join(dir, "in"), filepath.Join(dir, "out")
	if err := os.WriteFile(inPath, []byte("SHOW TABLES;\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	in, err := os.Open(inPath)
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}

	stdin, stdout := os.Stdin, os.Stdout
	os.Stdin, os.Stdout = in, out
	runErr := run(10, 2, 40)
	os.Stdin, os.Stdout = stdin, stdout
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}

	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"users", "carts"} {
		if !strings.Contains(string(got), "\n"+table) {
			t.Errorf("SHOW TABLES output does not list %q:\n%s", table, got)
		}
	}
}

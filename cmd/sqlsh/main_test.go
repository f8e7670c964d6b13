package main

import (
	"strings"
	"testing"
)

// TestRunShowTables boots the shell on a tiny warehouse and feeds it
// statements: a shell that cannot start (a UDF registered twice, a table
// that fails to load) or that cuts its input into the wrong statements
// fails here instead of at a user's prompt.
func TestRunShowTables(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		lists    int    // SHOW TABLES results expected
		want     string // other output expected, if any
	}{
		{name: "one statement", in: "SHOW TABLES;\n", lists: 1},
		{name: "two statements on one line", in: "SHOW TABLES; SHOW TABLES;\n", lists: 2},
		{
			// Cut at the quoted ';' the statement would count all 10 users
			// and the remainder would be a syntax error.
			name: "semicolon inside a literal, terminator on the next line",
			in:   "SELECT COUNT(*) FROM users WHERE gender <> ';'\n AND age < 0;\n",
			want: "count\n0\n",
		},
		{name: "escaped quote before a semicolon", in: "SELECT COUNT(*) FROM users WHERE gender = 'it''s;';\nSHOW TABLES;\n", lists: 1, want: "count\n0\n"},
		{name: "unterminated last statement", in: "SHOW TABLES", lists: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(strings.NewReader(tc.in), &out, 10, 2, 40); err != nil {
				t.Fatalf("run: %v", err)
			}
			got := out.String()
			if strings.Contains(got, "error:") {
				t.Errorf("statement failed:\n%s", got)
			}
			for _, table := range []string{"users", "carts"} {
				if n := strings.Count(got, "\n"+table+" "); n != tc.lists {
					t.Errorf("%q listed %d times, want %d:\n%s", table, n, tc.lists, got)
				}
			}
			if !strings.Contains(got, tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, got)
			}
		})
	}
}

package sqlengine

import (
	"math/rand"
	"slices"
	"testing"

	"sqlml/internal/row"
)

// pruneCases are joins that keep only some of their sources' columns,
// each with the kept columns of its joins, innermost first, as
// TestPlanGolden prints them.
var pruneCases = []struct {
	sql   string
	keeps []string
}{
	// A star reads every column of its bindings, a qualified star those of
	// its binding alone.
	{"SELECT * FROM t, u WHERE t.k = u.k",
		[]string{"t.k, t.v, t.f, t.cat | u.k, u.w"}},
	{"SELECT u.*, t.cat FROM t, u WHERE t.k = u.k",
		[]string{"t.cat | u.k, u.w"}},
	// A self-join: both sides bind the same column names.
	{"SELECT a.v, b.cat FROM t a, t b WHERE a.k = b.k AND b.v IS NOT NULL",
		[]string{"a.v | b.cat"}},
	// a.v is read only by the second join's key: the first join keeps it,
	// the second drops it.
	{"SELECT a.cat, c.w FROM t a, u b, u c WHERE a.k = b.k AND a.v = c.k",
		[]string{"a.v, a.cat | -", "a.cat | c.w"}},
	// t.f and u.w are read only by a conjunct over the joined rows.
	{"SELECT t.cat FROM t, u WHERE t.k = u.k AND t.f > u.w",
		[]string{"t.f, t.cat | u.w"}},
	// Read only by a GROUP BY key and an aggregate's argument.
	{"SELECT t.cat, COUNT(*), SUM(u.w) FROM t, u WHERE t.k = u.k GROUP BY t.cat",
		[]string{"t.cat | u.w"}},
	{"SELECT COUNT(*) FROM t, u WHERE t.k = u.k",
		[]string{"- | -"}},
	// Cartesian joins, one keeping nothing.
	{"SELECT t.v, u.w FROM t, u WHERE t.v > 40",
		[]string{"t.v | u.w"}},
	{"SELECT COUNT(*), MIN(c.cat) FROM t, u, t c WHERE u.w < 2.0",
		[]string{"- | -", "- | c.cat"}},
	// A constant select list reads nothing.
	{"SELECT 1 FROM t, u WHERE t.k = u.k",
		[]string{"- | -"}},
}

// joinKeeps lists the kept columns of every join under root, innermost
// first.
func joinKeeps(root *planNode) []string {
	var keeps []string
	for n := root; n != nil; n = n.in {
		if n.kind == nodeJoin {
			keeps = append([]string{keptColumns(n)}, keeps...)
		}
	}
	return keeps
}

// TestJoinKeepsReadColumns: every join keeps exactly the columns read
// above it, and the pruned query returns what the reference returns, the
// same at Parallelism 1 and 4.
func TestJoinKeepsReadColumns(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		var serial [][]string
		for _, par := range []int{1, 4} {
			rng := rand.New(rand.NewSource(seed))
			e := nullableTablesCfg(t, rng, 3, 60, 25, Config{Parallelism: par})
			for i, c := range pruneCases {
				sel, err := ParseSelect(c.sql)
				if err != nil {
					t.Fatal(err)
				}
				n, err := e.plan(sel)
				if err != nil {
					t.Fatalf("%s: %v", c.sql, err)
				}
				if got := joinKeeps(n); !slices.Equal(got, c.keeps) {
					t.Errorf("%s: joins keep %q, want %q", c.sql, got, c.keeps)
				}
				want, err := referenceQuery(e, c.sql)
				if err != nil {
					t.Fatalf("%s: reference: %v", c.sql, err)
				}
				res, err := e.Query(c.sql)
				if err != nil {
					t.Fatalf("%s: %v", c.sql, err)
				}
				got := res.Rows()
				if d := diffResults(c.sql, got, want); d != "" {
					t.Errorf("seed %d parallelism %d: %s: %s", seed, par, c.sql, d)
				}
				if par == 1 {
					serial = append(serial, rowStrings(got))
				} else if !slices.Equal(rowStrings(got), serial[i]) {
					t.Errorf("seed %d: %s: parallelism 4 differs from parallelism 1", seed, c.sql)
				}
			}
		}
	}
}

// TestJoinKeepsTableFunctionColumns: a table function's output, on either
// side of a join, keeps only the columns read above it, and the join
// returns what the reference returns over the same rows as a table.
func TestJoinKeepsTableFunctionColumns(t *testing.T) {
	echo := &TableUDF{
		Name:         "echo",
		PerPartition: true,
		OutSchema:    func(in row.Schema, args []row.Value) (row.Schema, error) { return in, nil },
		Fn: func(ctx *UDFContext, in ColBatchSource, args []row.Value, emit func(*row.ColBatch) error) error {
			for {
				b, ok, err := in.NextCol()
				if err != nil || !ok {
					return err
				}
				if err := emit(b); err != nil {
					return err
				}
			}
		},
	}
	for _, c := range []struct{ sql, ref, keep string }{
		{"SELECT t.cat, e.w FROM t, TABLE(echo(u)) e WHERE t.k = e.k",
			"SELECT t.cat, e.w FROM t, u e WHERE t.k = e.k", "t.cat | e.w"},
		{"SELECT e.cat, u.w FROM TABLE(echo(t)) e, u WHERE e.k = u.k AND e.v > 0",
			"SELECT e.cat, u.w FROM t e, u WHERE e.k = u.k AND e.v > 0", "e.cat | u.w"},
	} {
		var serial []string
		for _, par := range []int{1, 4} {
			e := nullableTablesCfg(t, rand.New(rand.NewSource(9)), 3, 60, 25, Config{Parallelism: par})
			if err := e.Registry().RegisterTable(echo); err != nil {
				t.Fatal(err)
			}
			sel, err := ParseSelect(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			n, err := e.plan(sel)
			if err != nil {
				t.Fatalf("%s: %v", c.sql, err)
			}
			if got := joinKeeps(n); !slices.Equal(got, []string{c.keep}) {
				t.Errorf("%s: join keeps %q, want %q", c.sql, got, c.keep)
			}
			want, err := referenceQuery(e, c.ref)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Query(c.sql)
			if err != nil {
				t.Fatalf("%s: %v", c.sql, err)
			}
			if d := diffResults(c.sql, res.Rows(), want); d != "" {
				t.Errorf("parallelism %d: %s: %s", par, c.sql, d)
			}
			got := rowStrings(res.Rows())
			if serial == nil {
				serial = got
			} else if !slices.Equal(got, serial) {
				t.Errorf("%s: parallelism 4 differs from parallelism 1", c.sql)
			}
		}
	}
}

// TestJoinColumnErrors: a name the select list, a GROUP BY key, an
// aggregate or a conjunct over the joined rows cannot resolve fails with
// the text it failed with before joins kept only the columns read above
// them.
func TestJoinColumnErrors(t *testing.T) {
	e := nullableTablesCfg(t, rand.New(rand.NewSource(3)), 2, 20, 10, Config{})
	for _, c := range []struct{ sql, err string }{
		{"SELECT nosuch FROM t, u WHERE t.k = u.k", `sql: unknown column "nosuch"`},
		{"SELECT t.w FROM t, u WHERE t.k = u.k", "sql: unknown column t.w"},
		{"SELECT k FROM t, u WHERE t.k = u.k", `sql: ambiguous column "k"`},
		{"SELECT a.v FROM t a, t b WHERE a.k = b.k AND v > 0", `sql: ambiguous column "v"`},
		{"SELECT t.cat, COUNT(*) FROM t, u WHERE t.k = u.k GROUP BY t.nosuch", "sql: unknown column t.nosuch"},
		{"SELECT SUM(k) FROM t, u WHERE t.k = u.k", `sql: ambiguous column "k"`},
		{"SELECT x.* FROM t, u WHERE t.k = u.k", `sql: unknown binding "x" in star expansion`},
		{"SELECT t.cat, w FROM t, u WHERE t.k = u.k GROUP BY t.cat", "sql: w is neither an aggregate nor in GROUP BY"},
	} {
		_, err := e.Query(c.sql)
		if err == nil || err.Error() != c.err {
			t.Errorf("%s: err = %v, want %q", c.sql, err, c.err)
		}
	}
}

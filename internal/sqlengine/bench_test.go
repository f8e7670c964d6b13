package sqlengine

import (
	"fmt"
	"math/rand"
	"testing"

	"sqlml/internal/cluster"
	"sqlml/internal/row"
)

// benchEngine loads a mid-size fact/dimension pair for operator benchmarks.
func benchEngine(b *testing.B, facts, dims int) *Engine {
	return benchEngineCfg(b, facts, dims, Config{})
}

// benchEngineCfg is the configurable loader: the parallelism pairs
// vary Config.Parallelism over the same data.
func benchEngineCfg(b *testing.B, facts, dims int, cfg Config) *Engine {
	b.Helper()
	topo := cluster.NewTopology(5)
	cfg.HeadNodeID = 0
	cfg.WorkerNodeIDs = []int{1, 2, 3, 4}
	e, err := New(topo, nil, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	factRows := make([]row.Row, facts)
	cats := []string{"red", "green", "blue", "black", "white"}
	for i := range factRows {
		factRows[i] = row.Row{
			row.Int(int64(i)),
			row.Int(int64(rng.Intn(dims))),
			row.Float(rng.Float64() * 1000),
			row.String_(cats[rng.Intn(len(cats))]),
		}
	}
	dimRows := make([]row.Row, dims)
	for i := range dimRows {
		dimRows[i] = row.Row{row.Int(int64(i)), row.String_(fmt.Sprintf("dim-%d", i))}
	}
	if err := e.LoadTable("fact", row.MustSchema(
		row.Column{Name: "id", Type: row.TypeInt},
		row.Column{Name: "dimid", Type: row.TypeInt},
		row.Column{Name: "v", Type: row.TypeFloat},
		row.Column{Name: "cat", Type: row.TypeString},
	), factRows); err != nil {
		b.Fatal(err)
	}
	if err := e.LoadTable("dim", row.MustSchema(
		row.Column{Name: "id", Type: row.TypeInt},
		row.Column{Name: "name", Type: row.TypeString},
	), dimRows); err != nil {
		b.Fatal(err)
	}
	return e
}

func runQuery(b *testing.B, e *Engine, sql string) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// The four hot-path benchmarks below isolate the hash/sort operators the
// arena hash-table work targets: multi-key grouping, a selective equi-join,
// a wide DISTINCT (a GROUP BY with no aggregates: per-partition partials
// and the head merge), and a full ORDER BY with no LIMIT (per-partition
// sorts + k-way merge at the head).

func BenchmarkGroupBy(b *testing.B) {
	e := benchEngine(b, 50_000, 100)
	runQuery(b, e, "SELECT cat, dimid, COUNT(*), SUM(v), MIN(v), MAX(v) FROM fact GROUP BY cat, dimid")
}

// GroupByManyGroups puts about two rows in each group, with the agg_prep
// workload's five aggregates, so the per-group cost (a new group's key,
// its state, the merge and the final write) shows, not only the per-row
// fold.
func BenchmarkGroupByManyGroups(b *testing.B) {
	e := benchEngine(b, 50_000, 25_000)
	runQuery(b, e, `SELECT dimid, COUNT(*), AVG(v), MAX(v), SUM(id),
		AVG(CASE WHEN cat = 'red' THEN 1.0 ELSE 0.0 END) FROM fact GROUP BY dimid`)
}

// DistinctManyRows is DISTINCT with every row distinct: each row is a new
// group in its partial and again in the serial head merge, the cost of
// DISTINCT sharing GROUP BY's merge rather than a hash repartition.
func BenchmarkDistinctManyRows(b *testing.B) {
	e := benchEngine(b, 50_000, 100)
	runQuery(b, e, "SELECT DISTINCT id, dimid FROM fact")
}

func BenchmarkHashJoin(b *testing.B) {
	e := benchEngine(b, 50_000, 100)
	runQuery(b, e, "SELECT f.id, f.v, d.name FROM fact f, dim d WHERE f.dimid = d.id AND f.v > 250")
}

func BenchmarkDistinct(b *testing.B) {
	e := benchEngine(b, 50_000, 100)
	runQuery(b, e, "SELECT DISTINCT cat, dimid FROM fact")
}

func BenchmarkOrderBy(b *testing.B) {
	e := benchEngine(b, 50_000, 100)
	runQuery(b, e, "SELECT id, v FROM fact ORDER BY v DESC, id")
}

// Filter and Project measure the columnar kernels directly: Filter is
// selection-vector refinement, Project typed arithmetic kernels over the
// filtered batch.

func BenchmarkFilter(b *testing.B) {
	e := benchEngine(b, 50_000, 100)
	runQuery(b, e, "SELECT id FROM fact WHERE v > 250.0 AND v < 750.0")
}

func BenchmarkProject(b *testing.B) {
	e := benchEngine(b, 50_000, 100)
	runQuery(b, e, "SELECT v * 2.0 - 1.0, id + dimid, v / 4.0 FROM fact WHERE v > 100.0")
}

// CompareKernels measures the compare and IN kernels under a COUNT(*),
// so the predicate dominates: a VARCHAR =, a DOUBLE range, a BIGINT
// against a DOUBLE (widened once per batch) and an 8-element IN list.
func BenchmarkCompareKernels(b *testing.B) {
	e := benchEngine(b, 50_000, 100)
	for _, c := range []struct{ name, where string }{
		{"varchar_eq", "cat = 'red'"},
		{"double_range", "v >= 250.0 AND v < 750.0"},
		{"bigint_double", "dimid * 10 < v"},
		{"in_list8", "dimid IN (1, 3, 5, 7, 11, 13, 17, 19)"},
	} {
		b.Run(c.name, func(b *testing.B) {
			runQuery(b, e, "SELECT COUNT(*) FROM fact WHERE "+c.where)
		})
	}
}

// The P1/P2 pairs below measure the query pool directly: the same
// query with the pool pinned to one worker (the sequential oracle) and to
// two — as far as a 2-vCPU runner can show. Output is byte-identical by
// construction (the parallelism property tests enforce it); only the wall
// clock may differ.

func benchParallelism(b *testing.B, sql string) {
	for _, par := range []int{1, 2} {
		b.Run(fmt.Sprintf("P%d", par), func(b *testing.B) {
			e := benchEngineCfg(b, 50_000, 100, Config{Parallelism: par})
			runQuery(b, e, sql)
		})
	}
}

func BenchmarkParGroupBy(b *testing.B) {
	benchParallelism(b, "SELECT cat, dimid, COUNT(*), SUM(v), MIN(v), MAX(v) FROM fact GROUP BY cat, dimid")
}

func BenchmarkParHashJoin(b *testing.B) {
	benchParallelism(b, "SELECT f.id, f.v, d.name FROM fact f, dim d WHERE f.dimid = d.id AND f.v > 250")
}

func BenchmarkParOrderBy(b *testing.B) {
	benchParallelism(b, "SELECT id, v FROM fact ORDER BY v DESC, id")
}

func BenchmarkEngineParse(b *testing.B) {
	const sql = `
		SELECT U.age, Mg.recodeVal AS gender, C.amount, Ma.recodeVal AS abandoned
		FROM carts C, users U, m AS Mg, m AS Ma
		WHERE C.userid = U.userid
		  AND Mg.colName = 'gender' AND U.gender = Mg.colVal
		  AND Ma.colName = 'abandoned' AND C.abandoned = Ma.colVal`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(sql); err != nil {
			b.Fatal(err)
		}
	}
}

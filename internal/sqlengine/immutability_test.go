package sqlengine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"sqlml/internal/row"
)

// chunkPrint hashes everything a sealed chunk holds: its length and
// selection, and per column the type, length, every null bit, value,
// string offset and payload byte.
func chunkPrint(c *row.ColBatch) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(c.FullLen()))
	put(uint64(len(c.Sel())))
	for ci := 0; ci < c.NumCols(); ci++ {
		v := c.Col(ci)
		put(uint64(v.Type()))
		put(uint64(v.Len()))
		for p := 0; p < v.Len(); p++ {
			if v.Null(p) {
				put(1)
			} else {
				put(0)
			}
			switch v.Type() {
			case row.TypeInt:
				put(uint64(v.Ints[p]))
			case row.TypeFloat:
				put(math.Float64bits(v.Floats[p]))
			case row.TypeBool:
				if v.Bools[p] {
					put(1)
				} else {
					put(2)
				}
			case row.TypeString:
				put(uint64(v.PayloadLen(p + 1)))
				h.Write(v.Bytes(p))
			}
		}
	}
	return h.Sum64()
}

// catalogPrints fingerprints every chunk of every managed table in e.
func catalogPrints(t *testing.T, e *Engine) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64)
	for _, name := range e.Catalog().Names() {
		tbl, err := e.Catalog().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for pi, part := range tbl.chunks() {
			out[fmt.Sprintf("%s/%d", name, pi)] = uint64(len(part))
			for ci, c := range part {
				out[fmt.Sprintf("%s/%d/%d", name, pi, ci)] = chunkPrint(c)
			}
		}
	}
	return out
}

func diffPrints(before, after map[string]uint64) string {
	var diffs []string
	for k, v := range before {
		if w, ok := after[k]; !ok || w != v {
			diffs = append(diffs, k)
		}
	}
	for k := range after {
		if _, ok := before[k]; !ok {
			diffs = append(diffs, k+" (new)")
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, ", ")
}

// loadCachedTransform builds what the §5.1 full-result tier stores: a prep
// table, a recode map, the recode join with a dummy-coded column as
// transform.Apply generates it, materialised and registered through
// RegisterResult (cache.Materialize's call). Every partition of both the
// prep table and "cached" spans several chunks.
func loadCachedTransform(t *testing.T, e *Engine, rng *rand.Rand) {
	t.Helper()
	prep := row.MustSchema(
		row.Column{Name: "age", Type: row.TypeInt},
		row.Column{Name: "gender", Type: row.TypeString},
		row.Column{Name: "amount", Type: row.TypeFloat},
		row.Column{Name: "abandoned", Type: row.TypeString},
	)
	var rows []row.Row
	for i := 0; i < (2*DefaultBatchSize+50)*e.NumWorkers(); i++ {
		rows = append(rows, row.Row{
			row.Int(int64(18 + rng.Intn(60))), row.String_([]string{"F", "M"}[rng.Intn(2)]),
			row.Float(rng.Float64() * 500), row.String_([]string{"No", "Yes"}[rng.Intn(2)]),
		})
	}
	if err := e.LoadTable("prep", prep, rows); err != nil {
		t.Fatal(err)
	}
	mapSchema := row.MustSchema(
		row.Column{Name: "colname", Type: row.TypeString},
		row.Column{Name: "colval", Type: row.TypeString},
		row.Column{Name: "recodeval", Type: row.TypeInt},
	)
	m := []row.Row{
		{row.String_("abandoned"), row.String_("No"), row.Int(1)},
		{row.String_("abandoned"), row.String_("Yes"), row.Int(2)},
		{row.String_("gender"), row.String_("F"), row.Int(1)},
		{row.String_("gender"), row.String_("M"), row.Int(2)},
	}
	if err := e.LoadTable("recodemap", mapSchema, m); err != nil {
		t.Fatal(err)
	}
	res, err := e.QueryStream(`SELECT __t.age AS age,
		CASE WHEN __m1.recodeval = 1 THEN 1 ELSE 0 END AS gender_1,
		CASE WHEN __m1.recodeval = 2 THEN 1 ELSE 0 END AS gender_2,
		__t.amount AS amount, __m2.recodeval AS abandoned
		FROM prep AS __t, recodemap AS __m1, recodemap AS __m2
		WHERE __m1.colname = 'gender' AND __t.gender = __m1.colval
		AND __m2.colname = 'abandoned' AND __t.abandoned = __m2.colval`)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Materialize(); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterResult("cached", res); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"prep", "cached"} {
		tbl, err := e.Catalog().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for pi, p := range tbl.chunks() {
			if len(p) < 2 {
				t.Fatalf("%s partition %d holds %d chunk(s); the view's reuse across chunks goes untested", name, pi, len(p))
			}
		}
	}
}

// cacheServedQueries read the cached table the way cache-served runs and
// the recode join read managed tables: whole, narrowed by a filter, and
// probed.
var cacheServedQueries = []string{
	"SELECT * FROM cached",
	"SELECT age, amount, abandoned FROM cached WHERE gender_2 = 0",
	"SELECT __t.age, __m.colval FROM prep AS __t, recodemap AS __m WHERE __m.colname = 'gender' AND __t.gender = __m.colval",
	"SELECT abandoned, COUNT(*), SUM(amount) FROM cached WHERE age > 40 GROUP BY abandoned",
}

func sortedResult(t *testing.T, e *Engine, sql string) string {
	res, err := e.Query(sql)
	if err != nil {
		t.Errorf("%s: %v", sql, err)
		return ""
	}
	out := rowStrings(res.Rows())
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// churnBatchPool plays every later owner of a pooled batch: goroutines on
// every P take batches from the pool, reset and refill them, and give them
// back. A view that reached the pool would route those writes into the
// chunk under it.
func churnBatchPool(types []row.Type) {
	var wg sync.WaitGroup
	for g := 0; g < 4*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				b := row.GetColBatch(types)
				for r := 0; r < DefaultBatchSize; r++ {
					b.AppendRow(row.Row{row.Int(-1), row.Int(-2), row.Float(-3), row.String_("churn")})
				}
				row.PutColBatch(b)
			}
		}()
	}
	wg.Wait()
}

// TestManagedChunksNeverMutated is the sealed-chunk oracle. It
// fingerprints every chunk of the property corpus's managed tables, plus
// a cache-shaped table whose partitions span several chunks, then runs
// the corpus at Parallelism 1 and 4, two goroutines of cache-served reads
// of the cached table, and a churn of the batch pool, and fingerprints
// again. A scan whose view shares a chunk's header array, or a view handed
// back to the batch pool, writes into published chunks and fails here.
func TestManagedChunksNeverMutated(t *testing.T) {
	for _, par := range []int{1, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			e := nullableTablesCfg(t, rng, 1+rng.Intn(4), 20+rng.Intn(80), 1+rng.Intn(30), Config{Parallelism: par})
			loadCachedTransform(t, e, rng)
			before := catalogPrints(t, e)

			for _, sql := range oracleCorpus() {
				// Which queries fail is the reference suite's business.
				if res, err := e.Query(sql); err == nil {
					res.Rows()
				}
			}
			want := make([]string, len(cacheServedQueries))
			for i, sql := range cacheServedQueries {
				want[i] = sortedResult(t, e, sql)
			}
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i, sql := range cacheServedQueries {
						if got := sortedResult(t, e, sql); got != want[i] {
							t.Errorf("parallelism %d seed %d: concurrent %s differs from the sequential run", par, seed, sql)
						}
					}
				}()
			}
			wg.Wait()
			churnBatchPool([]row.Type{row.TypeInt, row.TypeInt, row.TypeFloat, row.TypeString})
			if d := diffPrints(before, catalogPrints(t, e)); d != "" {
				t.Fatalf("parallelism %d seed %d: chunks changed by reads: %s", par, seed, d)
			}
		}
	}
}

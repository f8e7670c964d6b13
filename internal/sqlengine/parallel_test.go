package sqlengine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"sqlml/internal/row"
)

// This file holds the parallelism oracle: every query runs on a
// Parallelism: 1 engine (one pool worker executes every task in claim
// order — the sequential reference) and on a Parallelism: N engine over
// identical data, and the outputs must be byte-identical as ordered
// sequences — not multisets. Partition contents, group-merge order,
// DISTINCT survivors, hash-join bucket order, and ORDER BY ties must all
// be deterministic functions of the input, never of the schedule.

// parallelOracleQueries extends the columnar corpus with the shapes whose
// determinism depends on partial/merge discipline: float SUM/AVG (addition
// order is observable), DISTINCT (first-instance-per-partition), HAVING,
// and ORDER BY ties on duplicate keys.
var parallelOracleQueries = []string{
	"SELECT cat, SUM(f), AVG(f) FROM t GROUP BY cat",
	"SELECT k, SUM(v), COUNT(*) AS n FROM t GROUP BY k HAVING n > 1",
	"SELECT SUM(f), MIN(v), MAX(f) FROM t",
	"SELECT DISTINCT cat, k FROM t",
	"SELECT DISTINCT v FROM t ORDER BY v",
	"SELECT t.v, u.w FROM t, u WHERE t.k = u.k",
	// ORDER BY sees output columns by name; NULL w values tie.
	"SELECT t.cat, u.w FROM t, u WHERE t.k = u.k AND t.v > 0 ORDER BY w DESC",
	"SELECT cat, v FROM t WHERE v IS NOT NULL ORDER BY cat",
	"SELECT k, v FROM t ORDER BY k LIMIT 13",
	"SELECT v + 1, f * 2.0 FROM t WHERE f > v",
	"SELECT v FROM t LIMIT 7",
	// Breaker chains. HAVING sees output columns by name; a group whose v
	// are all NULL has a NULL s, which HAVING drops.
	"SELECT k, SUM(v) AS s FROM t GROUP BY k HAVING s > 10",
	"SELECT cat, COUNT(*) AS n, MIN(f) AS lo FROM t GROUP BY cat HAVING cat <> 'b' AND n > 1",
	"SELECT COUNT(*) AS n, MIN(f) AS lo, MAX(v) AS hi FROM t HAVING n > 5",
	"SELECT k, SUM(v) AS s FROM t GROUP BY k ORDER BY s DESC, k LIMIT 4",
	"SELECT DISTINCT cat, v FROM t ORDER BY cat, v DESC LIMIT 5",
	// f is NULL-heavy: the NULLs tie and keep their input order.
	"SELECT k, f FROM t ORDER BY f DESC",
}

// TestPropertyParallelismOracle runs the corpus (the columnar-oracle
// queries plus the parallelism-sensitive ones above) over random
// NULL-heavy tables at Parallelism 1 vs N and requires exactly equal row
// sequences.
func TestPropertyParallelismOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		workers := 1 + rng.Intn(4)
		par := 2 + rng.Intn(7) // 2..8
		nl, nr := rng.Intn(80), rng.Intn(30)
		data := rng.Int63()
		seqEng := nullableTablesCfg(t, rand.New(rand.NewSource(data)), workers, nl, nr, Config{Parallelism: 1})
		parEng := nullableTablesCfg(t, rand.New(rand.NewSource(data)), workers, nl, nr, Config{Parallelism: par})
		for _, sql := range oracleCorpus() {
			want, werr := runOracle(seqEng, sql)
			got, gerr := runOracle(parEng, sql)
			if (werr != nil) != (gerr != nil) {
				t.Logf("seed %d (P=%d): %s: sequential err=%v, parallel err=%v", seed, par, sql, werr, gerr)
				return false
			}
			if werr != nil {
				continue
			}
			if fmt.Sprint(want) != fmt.Sprint(got) {
				t.Logf("seed %d (P=%d): %s:\n P=1: %v\n P=%d: %v", seed, par, sql, want, par, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestParallelismValidation pins the Config contract: negative rejected,
// zero defaults to GOMAXPROCS, explicit values stick.
func TestParallelismValidation(t *testing.T) {
	e := newTestEngine(t)
	if got, want := e.Parallelism(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default Parallelism = %d, want GOMAXPROCS %d", got, want)
	}
	rng := rand.New(rand.NewSource(1))
	if e := nullableTablesCfg(t, rng, 2, 0, 0, Config{Parallelism: 3}); e.Parallelism() != 3 {
		t.Errorf("Parallelism = %d, want 3", e.Parallelism())
	}
	topo := e.Topology()
	if _, err := New(topo, nil, Config{HeadNodeID: 0, WorkerNodeIDs: []int{1}, Parallelism: -1}); err == nil {
		t.Error("negative Parallelism accepted")
	}
}

// TestCancelMidQueryTearsDown closes a result while a background
// Materialize is mid-drain over endless per-partition UDF pipelines: the
// drain must stop at a batch boundary with errQueryCancelled, every UDF
// goroutine must exit, and the goroutine count must return to baseline —
// for the parallel pool and for the Parallelism: 1 oracle alike.
func TestCancelMidQueryTearsDown(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism_%d", par), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			e := nullableTablesCfg(t, rng, 3, 40, 10, Config{Parallelism: par})
			var emitted atomic.Int64
			registerGenerator(t, e, "gen_endless", 1<<30, &emitted)
			baseline := runtime.NumGoroutine()

			res, err := e.QueryStream("SELECT v FROM TABLE(gen_endless(t)) WHERE v >= 0")
			if err != nil {
				t.Fatal(err)
			}
			errc := make(chan error, 1)
			go func() { errc <- res.Materialize() }()
			// Let the drain make real progress before pulling the plug.
			for emitted.Load() < 10*int64(DefaultBatchSize) {
				runtime.Gosched()
			}
			res.Close()
			if err := <-errc; !errors.Is(err, errQueryCancelled) {
				t.Errorf("Materialize after Close = %v, want errQueryCancelled", err)
			}
			waitGoroutines(t, baseline, "cancelled materialize")
		})
	}
}

// TestCancelledColScanReturnsPooledBatch pins the pooled-ColBatch side of
// cancellation teardown: closing an external table's scan mid-stream
// (what closeAllIters does for every partition when the pool cancels)
// must return its pooled batch rather than strand it.
func TestCancelledColScanReturnsPooledBatch(t *testing.T) {
	left, right := oracleRows(rand.New(rand.NewSource(3)), 40, 5)
	e := oracleEngine(t, 1, left, right, true, Config{})
	tbl, err := e.Catalog().Get("t")
	if err != nil {
		t.Fatal(err)
	}
	iters, err := e.scanTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	s := iters[0].(*externalScan)
	if _, ok, err := s.NextCol(); err != nil || !ok {
		t.Fatalf("NextCol: ok=%v err=%v", ok, err)
	}
	if s.buf == nil {
		t.Fatal("scan should hold a pooled batch mid-stream")
	}
	s.Close()
	if s.buf != nil {
		t.Error("Close left the pooled ColBatch stranded instead of returning it")
	}
}

// TestPartitionErrorCancelsSiblings checks first-error teardown through
// the pool: one partition's UDF fails, the query returns that error (not
// a cancellation), sibling pipelines stop, and nothing leaks.
func TestPartitionErrorCancelsSiblings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	e := nullableTablesCfg(t, rng, 4, 40, 10, Config{Parallelism: 4})
	boom := errors.New("boom")
	err := e.Registry().RegisterTable(&TableUDF{
		Name:         "gen_partial_fail",
		PerPartition: true,
		OutSchema:    genSchema,
		Fn: func(ctx *UDFContext, in ColBatchSource, args []row.Value, emit func(*row.ColBatch) error) error {
			if ctx.Partition == 2 {
				return boom
			}
			return generate(math.MaxInt, func(i int) int64 { return int64(i) }, nil, emit)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	_, qerr := e.Query("SELECT v FROM TABLE(gen_partial_fail(t))")
	// The UDF layer may wrap the failure with %v formatting, which keeps
	// its text but not its chain.
	if qerr == nil || !errors.Is(qerr, boom) && (errors.Is(qerr, errPipeClosed) || !strings.Contains(qerr.Error(), "boom")) {
		t.Fatalf("query error = %v, want the partition's own failure", qerr)
	}
	if errors.Is(qerr, errQueryCancelled) {
		t.Fatalf("cancellation masked the real error: %v", qerr)
	}
	waitGoroutines(t, baseline, "failed partition")
}

// countSink counts the batches of one partition; add fails with fail.
type countSink struct {
	batches int
	fail    error
}

func (s *countSink) add(*row.ColBatch) error { s.batches++; return s.fail }
func (s *countSink) end(err error) error     { return err }

// closeCounter counts the Close calls on a partition pipeline.
type closeCounter struct {
	ColBatchSource
	closed *atomic.Int32
}

func (c closeCounter) Close() { c.closed.Add(1); c.ColBatchSource.Close() }

// oneRowParts returns n single-batch partition pipelines whose Close calls
// are counted in closed.
func oneRowParts(n int, closed *atomic.Int32) []ColBatchSource {
	types := []row.Type{row.TypeInt}
	iters := make([]ColBatchSource, n)
	for i := range iters {
		src := NewRowSource([]row.Row{{row.Int(int64(i))}}, types)
		iters[i] = closeCounter{src, closed}
	}
	return iters
}

// TestQueryPoolForEach exercises the pool's task loop through its
// partition drain: every partition runs exactly once, a failing partition
// cancels the pool and its own error wins, and a pre-cancelled pool runs
// nothing. Every pipeline is closed in all three cases.
func TestQueryPoolForEach(t *testing.T) {
	p := newQueryPool(3)
	if p.n != 3 {
		t.Fatalf("pool size = %d, want 3", p.n)
	}
	const n = 100
	var ran [n]atomic.Int32
	var closed atomic.Int32
	sinks := make([]*countSink, n)
	if err := p.drain(oneRowParts(n, &closed), func(i int) (partSink, error) {
		ran[i].Add(1)
		sinks[i] = &countSink{}
		return sinks[i], nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if ran[i].Load() != 1 {
			t.Fatalf("partition %d ran %d times", i, ran[i].Load())
		}
		if sinks[i].batches != 1 {
			t.Fatalf("partition %d drained %d batches, want 1", i, sinks[i].batches)
		}
	}
	if closed.Load() != n {
		t.Errorf("closed %d pipelines, want %d", closed.Load(), n)
	}

	// A failing partition cancels the rest of the queue; its error wins.
	p = newQueryPool(2)
	boom := errors.New("task boom")
	closed.Store(0)
	err := p.drain(oneRowParts(n, &closed), func(i int) (partSink, error) {
		if i == 5 {
			return &countSink{fail: boom}, nil
		}
		return &countSink{}, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("drain error = %v, want task error", err)
	}
	if p.ctx.Err() == nil {
		t.Error("task error did not cancel the pool")
	}
	if closed.Load() < n {
		t.Errorf("closed %d pipelines, want every one of %d", closed.Load(), n)
	}

	// Pre-cancelled pools run nothing and still close every pipeline.
	p = newQueryPool(2)
	p.cancel(errQueryCancelled)
	var touched atomic.Int32
	closed.Store(0)
	err = p.drain(oneRowParts(4, &closed), func(int) (partSink, error) {
		touched.Add(1)
		return &countSink{}, nil
	})
	if !errors.Is(err, errQueryCancelled) {
		t.Fatalf("cancelled drain error = %v, want errQueryCancelled", err)
	}
	if touched.Load() != 0 {
		t.Errorf("cancelled pool still ran %d tasks", touched.Load())
	}
	if closed.Load() != 4 {
		t.Errorf("cancelled pool closed %d pipelines, want 4", closed.Load())
	}
}

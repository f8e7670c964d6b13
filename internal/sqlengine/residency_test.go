package sqlengine

import (
	"sync"
	"sync/atomic"
	"testing"

	"sqlml/internal/row"
)

// This file is the dynamic twin of the batchretain analyzer: the static
// pass forbids retaining a batch past the next NextCol call, and these
// tests prove the PR-4 operators (hash-join probe, grouped-agg merge,
// parallel ORDER BY) actually honor that contract — both that they stay
// O(batch)-resident where they stream, and that they survive a producer
// which aggressively recycles (and poisons) its batch container.

// registerModGenerator installs a per-partition UDF emitting n rows with
// v = i%mod + 1, counting every emit in the given counter (may be nil).
// The +1 lines the values up with the userid domain of the paper's users
// table, so every generated row joins to exactly one build row.
func registerModGenerator(t *testing.T, e *Engine, name string, n, mod int, emitted *atomic.Int64) {
	t.Helper()
	err := e.Registry().RegisterTable(&TableUDF{
		Name:         name,
		PerPartition: true,
		OutSchema:    genSchema,
		Fn: func(ctx *UDFContext, in ColBatchSource, args []row.Value, emit func(*row.ColBatch) error) error {
			return generate(n, func(i int) int64 { return int64(i%mod + 1) }, emitted, emit)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestJoinProbeHoldsOnlyBatchResidentRows extends the pipeline residency
// check to the hash-join probe: the build side (users, 5 rows) is drained
// as the pipeline-breaker it is, but the probe side — a generator 16×
// the batch size per partition — must stream through the probe without
// accumulating. Every generated row matches exactly one build row, so
// join output rows equal probe input rows and emitted−consumed measures
// the probe-side rows in flight.
func TestJoinProbeHoldsOnlyBatchResidentRows(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	const perPartition = 16 * DefaultBatchSize
	var emitted, consumed, peak atomic.Int64
	registerModGenerator(t, e, "gen_probe", perPartition, 5, &emitted)

	res, err := e.QueryStream(
		"SELECT u.userid FROM TABLE(gen_probe(users)) g JOIN users u ON g.v = u.userid")
	if err != nil {
		t.Fatal(err)
	}
	iters, err := res.Batches()
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, len(iters))
	var wg sync.WaitGroup
	for _, it := range iters {
		wg.Add(1)
		go func(it BatchIterator) {
			defer wg.Done()
			defer it.Close()
			for {
				b, ok, err := it.Next()
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					return
				}
				consumed.Add(int64(len(b)))
				inflight := emitted.Load() - consumed.Load()
				for {
					p := peak.Load()
					if inflight <= p || peak.CompareAndSwap(p, inflight) {
						break
					}
				}
			}
		}(it)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := int64(e.NumWorkers()) * perPartition
	if consumed.Load() != total {
		t.Fatalf("consumed %d join rows, want %d", consumed.Load(), total)
	}
	// The probe pipeline is one stage deeper than the plain scan→UDF
	// pipeline, so allow a little more slack; anything near the full
	// relation means the probe (or a stage around it) materialized.
	bound := int64(e.NumWorkers()) * 6 * DefaultBatchSize
	if p := peak.Load(); p > bound {
		t.Errorf("peak in-flight probe rows = %d, want <= %d (O(batch), not O(dataset)=%d)",
			p, bound, total)
	}
}

// intRows builds single-column rows from the given values.
func intRows(vs ...int64) []row.Row {
	out := make([]row.Row, len(vs))
	for i, v := range vs {
		out[i] = row.Row{row.Int(v)}
	}
	return out
}

// drainBatches pulls a pipeline to completion, materializing one
// partition as owning rows. The pipeline is closed either way.
func drainBatches(it ColBatchSource) ([]row.Row, error) {
	defer it.Close()
	var out []row.Row
	for {
		b, ok, err := it.NextCol()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = b.Rows(out)
	}
}

// colKey is the sort-key kernel reading column c as it is.
func colKey(c int) vecFn {
	return func(_ *vecCtx, b *row.ColBatch, _ []int32) (*row.Vector, error) { return b.Col(c), nil }
}

// TestOrderByUnderBatchRecycling drains poisoning producers (with and
// without a masked poison row) the way orderBy does (drainChunks over
// every partition), sorts the chunks by key refs, and gathers — checking
// the exact global order and the cross-partition stability rule (ties
// break toward the lower partition index).
func TestOrderByUnderBatchRecycling(t *testing.T) {
	parts := [][]row.Row{
		intRows(3, 1, 7, 3),
		intRows(2, 3, 9),
	}
	types := []row.Type{row.TypeInt}
	qp := newQueryPool(2)
	for _, junk := range []bool{false, true} {
		iters := make([]ColBatchSource, len(parts))
		for i, part := range parts {
			iters[i] = newRecyclingColBatches(types, part, 2, junk)
		}
		chunks, err := qp.drainChunks(iters, types)
		if err != nil {
			t.Fatal(err)
		}
		sorted, err := sortParts(qp, []orderSpec{{}}, []vecFn{colKey(0)}, types, chunks)
		if err != nil {
			t.Fatal(err)
		}
		merged := chunkRows(sorted)
		want := []int64{1, 2, 3, 3, 3, 7, 9}
		if len(merged) != len(want) {
			t.Fatalf("junk=%v: merged %d rows, want %d", junk, len(merged), len(want))
		}
		for i, w := range want {
			if merged[i][0].AsInt() != w {
				t.Errorf("junk=%v: merged[%d] = %d, want %d", junk, i, merged[i][0].AsInt(), w)
			}
		}
	}
}

// TestAggregateAndOrderByOverRecyclingProducer runs GROUP BY and ORDER BY
// over a table-UDF source end to end. The generator beneath TABLE(...)
// refills one ColBatch and poisons it each time udfPipe hands it back, so
// the streaming grouped-agg merge and the parallel sort both consume from
// a genuinely recycling producer; exact results prove they copied what
// they kept.
func TestAggregateAndOrderByOverRecyclingProducer(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	const mod = 3
	const perPartition = mod * DefaultBatchSize // divisible by mod: equal group sizes
	registerModGenerator(t, e, "gen_mod", perPartition, mod, nil)

	// Grouped aggregation: mod groups, each with exactly
	// workers × perPartition/mod rows, values 1..mod summing per group to
	// count × v.
	res, err := e.Query(
		"SELECT v, COUNT(*) AS n, SUM(v) AS s FROM TABLE(gen_mod(users)) GROUP BY v ORDER BY v")
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != mod {
		t.Fatalf("groups = %d, want %d", len(rows), mod)
	}
	perGroup := int64(e.NumWorkers()) * perPartition / mod
	for i, r := range rows {
		v := int64(i + 1)
		if r[0].AsInt() != v || r[1].AsInt() != perGroup || r[2].AsInt() != perGroup*v {
			t.Errorf("group %d = %v, want (%d, %d, %d)", i, r, v, perGroup, perGroup*v)
		}
	}

	// Parallel ORDER BY DESC over the same recycling source: the merged
	// output must be exactly the generated multiset in non-increasing
	// order.
	res, err = e.Query("SELECT v FROM TABLE(gen_mod(users)) ORDER BY v DESC")
	if err != nil {
		t.Fatal(err)
	}
	rows = res.Rows()
	total := e.NumWorkers() * perPartition
	if len(rows) != total {
		t.Fatalf("rows = %d, want %d", len(rows), total)
	}
	counts := make(map[int64]int64)
	prev := int64(mod + 1)
	for i, r := range rows {
		v := r[0].AsInt()
		if v > prev {
			t.Fatalf("row %d: %d after %d — not descending", i, v, prev)
		}
		prev = v
		counts[v]++
	}
	for v := int64(1); v <= mod; v++ {
		if counts[v] != perGroup {
			t.Errorf("value %d appears %d times, want %d", v, counts[v], perGroup)
		}
	}
	if len(counts) != mod {
		t.Errorf("distinct values = %d, want %d", len(counts), mod)
	}
}

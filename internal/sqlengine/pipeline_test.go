package sqlengine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlml/internal/row"
)

// genSchema is the output schema of the generator UDFs below.
func genSchema(in row.Schema, args []row.Value) (row.Schema, error) {
	return row.NewSchema(row.Column{Name: "v", Type: row.TypeInt})
}

// TestTableUDFValidatesEveryRow is the regression test for the schema check
// that used to inspect only the first emitted row. Output is checked once
// per batch, by vector type, so a UDF whose FIRST batch conforms but whose
// SECOND has a VARCHAR vector where the declared schema says BIGINT must
// still fail, on both the per-partition and the global execution path.
func TestTableUDFValidatesEveryRow(t *testing.T) {
	for _, perPart := range []bool{true, false} {
		name := fmt.Sprintf("bad_second_row_%v", perPart)
		t.Run(name, func(t *testing.T) {
			e := newTestEngine(t)
			loadPaperTables(t, e)
			err := e.Registry().RegisterTable(&TableUDF{
				Name:         name,
				PerPartition: perPart,
				OutSchema:    genSchema,
				Fn: func(ctx *UDFContext, in ColBatchSource, args []row.Value, emit func(*row.ColBatch) error) error {
					if err := emit(oneRowBatch(row.Int(1))); err != nil {
						return err
					}
					// The second batch's vector has the wrong type for column v.
					return emit(oneRowBatch(row.String_("oops")))
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, qerr := e.Query(fmt.Sprintf("SELECT v FROM TABLE(%s(users))", name)); qerr == nil {
				t.Errorf("perPartition=%v: schema violation in second emitted batch not caught", perPart)
			}
		})
	}
}

// oneRowBatch is a one-column, one-row batch typed by v.
func oneRowBatch(v row.Value) *row.ColBatch {
	b := row.NewColBatch([]row.Type{v.Kind})
	b.AppendRow(row.Row{v})
	return b
}

// generate emits v(0), …, v(n-1) as one-column BIGINT batches of up to
// DefaultBatchSize rows, counting each batch's rows in emitted (may be nil)
// before emitting it. It refills one ColBatch throughout and poisons every
// slot as soon as emit hands the batch back, so a consumer that kept a
// lent batch past its next pull reads poison and produces wrong results.
func generate(n int, v func(i int) int64, emitted *atomic.Int64, emit func(*row.ColBatch) error) error {
	types := []row.Type{row.TypeInt}
	b := row.NewColBatch(types)
	for i := 0; i < n; {
		b.Reset(types)
		for ; i < n && b.FullLen() < DefaultBatchSize; i++ {
			b.Col(0).AppendInt(v(i))
			b.SetFullLen(b.FullLen() + 1)
		}
		if emitted != nil {
			emitted.Add(int64(b.FullLen()))
		}
		if err := emit(b); err != nil {
			return err
		}
		for j := range b.Col(0).Ints {
			b.Col(0).Ints[j] = -987654321
		}
	}
	return nil
}

// registerGenerator installs a per-partition UDF emitting n rows per
// partition, counting every emit in the given counter (may be nil).
func registerGenerator(t *testing.T, e *Engine, name string, n int, emitted *atomic.Int64) {
	t.Helper()
	err := e.Registry().RegisterTable(&TableUDF{
		Name:         name,
		PerPartition: true,
		OutSchema:    genSchema,
		Fn: func(ctx *UDFContext, in ColBatchSource, args []row.Value, emit func(*row.ColBatch) error) error {
			return generate(n, func(i int) int64 { return int64(i) }, emitted, emit)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline, failing the test after the deadline.
func waitGoroutines(t *testing.T, baseline int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s leaked pipeline goroutines: baseline=%d now=%d",
				what, baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEarlyCloseReleasesPipelineGoroutines checks that a consumer stopping
// early — closing the result after one batch, or a LIMIT that never pulls
// the tail — shuts the per-partition UDF goroutines down rather than
// leaving them blocked on a full channel.
func TestEarlyCloseReleasesPipelineGoroutines(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	registerGenerator(t, e, "gen_many", 100*DefaultBatchSize, nil)
	baseline := runtime.NumGoroutine()

	// Abandon a streaming result after a single batch.
	res, err := e.QueryStream("SELECT v FROM TABLE(gen_many(users))")
	if err != nil {
		t.Fatal(err)
	}
	iters, err := res.Batches()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := iters[0].Next(); err != nil || !ok {
		t.Fatalf("first batch: ok=%v err=%v", ok, err)
	}
	for _, it := range iters {
		it.Close()
	}
	waitGoroutines(t, baseline, "early Close")

	// LIMIT terminates the pipeline after a prefix.
	res, err = e.Query("SELECT v FROM TABLE(gen_many(users)) LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 {
		t.Fatalf("limit rows = %d", res.NumRows())
	}
	waitGoroutines(t, baseline, "LIMIT")

	// An unconsumed streaming result closed outright starts nothing.
	res, err = e.QueryStream("SELECT v FROM TABLE(gen_many(users))")
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	waitGoroutines(t, baseline, "Close without consuming")
}

// TestPipelineHoldsOnlyBatchResidentRows is the tentpole's acceptance
// check: a scan → table-UDF → filter → project pipeline drained in
// parallel (as the stream sender drains it) must keep only O(batch) rows
// in flight per worker, not the whole relation. In-flight is measured as
// rows emitted by the UDFs minus rows the consumer has taken; under the
// old materialize-everything executor the peak would be the full row
// count.
func TestPipelineHoldsOnlyBatchResidentRows(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	const perPartition = 16 * DefaultBatchSize
	var emitted, consumed, peak atomic.Int64
	registerGenerator(t, e, "gen_counted", perPartition, &emitted)

	res, err := e.QueryStream("SELECT v FROM TABLE(gen_counted(users)) WHERE v >= 0")
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
		t.Fatalf("consumed %d rows, want %d", consumed.Load(), total)
	}
	// Each worker's pipeline may hold a few batches (one being filled, one
	// in the hand-off channel, one at the consumer); anything near the full
	// relation means a stage materialized.
	bound := int64(e.NumWorkers()) * 4 * DefaultBatchSize
	if p := peak.Load(); p > bound {
		t.Errorf("pipeline held %d rows in flight (bound %d, relation %d): a stage is materializing",
			p, bound, total)
	}
}

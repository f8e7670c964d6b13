// Columnar fixture: the ColBatch returned by NextCol (and every view its
// accessors hand out — vectors, selection, payload slabs) is recycled by
// the following NextCol, exactly like a RowBatch.
package batchretain

type Vector struct {
	Ints []int64
}

func (v *Vector) Bytes(i int) []byte  { return nil }
func (v *Vector) ValueAt(i int) int64 { return v.Ints[i] }

type ColBatch struct {
	cols []Vector
	sel  []int32
}

func (b *ColBatch) Col(i int) *Vector    { return &b.cols[i] }
func (b *ColBatch) Sel() []int32         { return b.sel }
func (b *ColBatch) Rows(dst []Row) []Row { return dst }

type colIter struct{ n int }

func (it *colIter) NextCol() (*ColBatch, bool, error) { return nil, false, nil }
func (it *colIter) Close()                            {}

type colSink struct {
	last    *ColBatch
	vec     *Vector
	batches []*ColBatch
}

// Bad: the whole batch parked in a struct field.
func (s *colSink) retainBatch(it *colIter) {
	for {
		b, ok, _ := it.NextCol()
		if !ok {
			return
		}
		s.last = b // want `stored in a struct field`
	}
}

// Bad: a vector view outlives the loop through a field — its header points
// into storage the next NextCol overwrites.
func (s *colSink) retainVector(it *colIter) {
	for {
		b, ok, _ := it.NextCol()
		if !ok {
			return
		}
		s.vec = b.Col(0) // want `stored in a struct field`
	}
}

// Bad: the selection vector remembered across iterations; producers refine
// it in place on every batch.
func lastSel(it *colIter) []int32 {
	var keep []int32
	for {
		b, ok, _ := it.NextCol()
		if !ok {
			return keep
		}
		keep = b.Sel() // want `assigned to keep`
	}
}

// Bad: batch pointers accumulated by reference across NextCol calls.
func collectColBatches(it *colIter) []*ColBatch {
	var all []*ColBatch
	for {
		b, ok, _ := it.NextCol()
		if !ok {
			return all
		}
		all = append(all, b) // want `appended by reference`
	}
}

// Bad: a string-payload slice sliced out of a vector slab, sent to a
// consumer that outlives the batch.
func shipBytes(it *colIter, ch chan []byte) {
	for {
		b, ok, _ := it.NextCol()
		if !ok {
			return
		}
		ch <- b.Col(1).Bytes(0) // want `sent on a channel`
	}
}

// Bad: the goroutine races the producer's next NextCol.
func spawnCol(it *colIter, done chan struct{}) {
	b, _, _ := it.NextCol()
	go func() {
		_ = b // want `captured by a goroutine`
		done <- struct{}{}
	}()
}

// Good: Rows copies owning rows out of the batch — ownership transfers,
// the alias chain breaks.
func drainCol(it *colIter) []Row {
	var out []Row
	for {
		b, ok, _ := it.NextCol()
		if !ok {
			return out
		}
		out = b.Rows(out)
	}
}

// Good: ValueAt copies the cell (strings included), so retaining the
// result is fine.
func sumFirst(it *colIter) int64 {
	var total int64
	for {
		b, ok, _ := it.NextCol()
		if !ok {
			return total
		}
		total = b.Col(0).ValueAt(0)
	}
}

// Good: views used strictly within the iteration — lifetimes nest inside
// the validity window the contract grants.
func countLive(it *colIter) int {
	n := 0
	for {
		b, ok, _ := it.NextCol()
		if !ok {
			return n
		}
		sel := b.Sel()
		n += len(sel)
	}
}

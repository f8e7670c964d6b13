// Fixture for the poolreturn analyzer.
package poolreturn

import (
	"row"
	"sync"
)

var pool = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

func use(b *[]byte) {}
func send(b []byte) {}

// Bad: the error path returns without putting the buffer back.
func leakOnEarlyReturn(fail bool) bool {
	b := pool.Get().(*[]byte)
	if fail {
		return false // want `b acquired from sync.Pool.Get leaks here`
	}
	pool.Put(b)
	return true
}

// Bad: released twice — the pool would hand the same buffer to two owners.
func doublePut() {
	b := pool.Get().(*[]byte)
	pool.Put(b)
	pool.Put(b) // want `pooled buffer b returned to the pool twice`
}

// Bad: the block buffer leaks when the caller bails before recycling.
func blockLeak(fail bool) []byte {
	buf := row.NewBlockBuffer()
	buf = append(buf, 1)
	if fail {
		return nil // want `buf acquired from row.NewBlockBuffer leaks here`
	}
	return buf // returning transfers ownership to the caller
}

// Good: deferred Put covers every exit.
func deferPut(fail bool) bool {
	b := pool.Get().(*[]byte)
	defer pool.Put(b)
	if fail {
		return false
	}
	use(b)
	return true
}

// Good: every path recycles.
func recycleAll(fail bool) {
	buf := row.NewBlockBuffer()
	if fail {
		row.RecycleBlockBuffer(buf)
		return
	}
	buf = append(buf, 2)
	row.RecycleBlockBuffer(buf)
}

// Good: passing the buffer to a callee transfers ownership.
func escapeToCallee() {
	buf := row.NewBlockBuffer()
	send(buf)
}

// Suppressed: a deliberate drop with a recorded reason.
func allowedLeak(fail bool) []byte {
	buf := row.NewBlockBuffer()
	if fail {
		//lint:allow poolreturn deliberate drop: the GC reclaims it and the pool refills on demand
		return nil
	}
	return buf
}

// batchReader stands in for a record reader: NextColBatch fills the
// caller's batch and hands it back.
type batchReader struct{}

func (batchReader) NextColBatch(dst *row.ColBatch) (int, bool, error) { return 0, false, nil }

func consume(b *row.ColBatch) error { return nil }

// Bad: the batch is only lent to the reader and the converter; nobody
// returns it to the pool.
func batchLentNeverPut(rr batchReader) error {
	cb := row.GetColBatch(nil)
	for {
		_, ok, err := rr.NextColBatch(cb)
		if err != nil {
			return err // want `cb acquired from row.GetColBatch leaks here`
		}
		if !ok {
			return nil // want `cb acquired from row.GetColBatch leaks here`
		}
		if err := consume(cb); err != nil {
			return err // want `cb acquired from row.GetColBatch leaks here`
		}
	}
} // want `cb acquired from row.GetColBatch leaks here`

// Good: a deferred Put covers every exit, however often the batch is lent.
func batchDeferPut(rr batchReader) error {
	cb := row.GetColBatch(nil)
	defer row.PutColBatch(cb)
	for {
		_, ok, err := rr.NextColBatch(cb)
		if err != nil || !ok {
			return err
		}
		if cb.Len() == 0 {
			return nil
		}
	}
}

// Good: returning the batch, or appending it to a list, transfers it.
func batchHandedOn(keep bool, list []*row.ColBatch) ([]*row.ColBatch, *row.ColBatch) {
	cb := row.GetColBatch(nil)
	if keep {
		return list, cb
	}
	list = append(list, cb)
	return list, nil
}

// Bad: returned to the pool twice.
func batchDoublePut() {
	cb := row.GetColBatch(nil)
	row.PutColBatch(cb)
	row.PutColBatch(cb) // want `pooled buffer cb returned to the pool twice`
}

// Not followed: a batch stored into a field is its owner's to return at
// Close, and a Close that drops it is not seen (the analyzer is
// intraprocedural).
type scan struct{ buf *row.ColBatch }

func (s *scan) open()  { s.buf = row.GetColBatch(nil) }
func (s *scan) Close() { s.buf = nil }

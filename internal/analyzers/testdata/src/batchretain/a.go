// Fixture for the batchretain analyzer: every way a RowBatch can be
// retained past the next Next call, and every blessed way to copy one.
package batchretain

type Row []int

type RowBatch []Row

type iter struct{ n int }

func (it *iter) Next() (RowBatch, bool, error) { return nil, false, nil }
func (it *iter) Close()                        {}

type sink struct {
	last RowBatch
	rows []Row
}

// Bad: the batch outlives the loop through a struct field.
func (s *sink) retainField(it *iter) {
	for {
		b, ok, _ := it.Next()
		if !ok {
			return
		}
		s.last = b // want `stored in a struct field`
	}
}

// Bad: batch-of-batches accumulated by reference across Next calls.
func collectBatches(it *iter) []RowBatch {
	var all []RowBatch
	for {
		b, ok, _ := it.Next()
		if !ok {
			return all
		}
		all = append(all, b) // want `appended by reference`
	}
}

// Bad: a row sliced out of the batch, remembered across iterations.
func lastRow(it *iter) Row {
	var keep Row
	for {
		b, ok, _ := it.Next()
		if !ok {
			return keep
		}
		keep = b[0] // want `assigned to keep`
	}
}

// Bad: the receiver holds the batch while the producer recycles it.
func ship(it *iter, ch chan RowBatch) {
	for {
		b, ok, _ := it.Next()
		if !ok {
			return
		}
		ch <- b // want `sent on a channel`
	}
}

// Bad: the goroutine races the producer's next Next.
func spawn(it *iter, done chan struct{}) {
	b, _, _ := it.Next()
	go func() {
		_ = b // want `captured by a goroutine`
		done <- struct{}{}
	}()
}

// Good: the spread copies row headers out of the batch (drain idiom).
func drain(it *iter) []Row {
	var out []Row
	for {
		b, ok, _ := it.Next()
		if !ok {
			return out
		}
		out = append(out, b...)
	}
}

// Good: scratch output reset every iteration — lifetimes nest with the
// operator's own Next contract (a row operator's reused output buffer).
type filter struct{ buf RowBatch }

func (f *filter) pull(it *iter) (RowBatch, bool) {
	for {
		b, ok, _ := it.Next()
		if !ok {
			return nil, false
		}
		out := f.buf[:0]
		for _, r := range b {
			if len(r) > 0 {
				out = append(out, r)
			}
		}
		f.buf = out
		if len(out) > 0 {
			return out, true
		}
	}
}

// Suppressed: a row-cursor parks the batch exactly for the window the
// contract grants; the directive must silence the diagnostic.
type cursor struct {
	cur RowBatch
	i   int
}

func (c *cursor) fill(it *iter) {
	b, ok, _ := it.Next()
	if !ok {
		return
	}
	//lint:allow batchretain cursor parks the batch only until its own Next exhausts it
	c.cur, c.i = b, 0
}

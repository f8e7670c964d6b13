package sqlengine

import "sqlml/internal/row"

// DefaultBatchSize is how many rows flow through the pipeline per batch —
// the single sizing constant shared with the wire layer (one pipeline
// batch fills one wire block frame; see row.DefaultBatchSize).
const DefaultBatchSize = row.DefaultBatchSize

// RowBatch is one batch of a result's row view.
type RowBatch []row.Row

// BatchIterator is the row view of one partition of a result, the form
// Result.Batches hands out. Next returns the next batch (ok=false at end
// of stream); a batch is only valid until the following Next call. Close
// releases the pipeline early — it must be safe to call at any point,
// more than once, and must stop any producer goroutines upstream.
type BatchIterator interface {
	Next() (b RowBatch, ok bool, err error)
	Close()
}

// colToRows is the row view over one partition's column batches: each
// batch's live rows are materialized as owning copies (flat value backing,
// one string slab copy per VARCHAR column), so a reader of Result.Batches
// that retains them stays safe while the column vectors recycle
// underneath.
type colToRows struct {
	c    ColBatchSource
	rows []row.Row
	done bool
}

func rowsIter(c ColBatchSource) BatchIterator { return &colToRows{c: c} }

func (a *colToRows) Next() (RowBatch, bool, error) {
	if a.done {
		return nil, false, nil
	}
	for {
		b, ok, err := a.c.NextCol()
		if err != nil || !ok {
			a.done = true
			return nil, false, err
		}
		if b.Len() == 0 {
			continue
		}
		a.rows = b.Rows(a.rows[:0])
		return RowBatch(a.rows), true, nil
	}
}

func (a *colToRows) Close() {
	a.done = true
	a.c.Close()
}

package sqlengine

import "sqlml/internal/row"

// DefaultBatchSize is how many rows flow through the pipeline per batch —
// the single sizing constant shared with the wire layer (one pipeline
// batch fills one wire block frame; see row.DefaultBatchSize).
const DefaultBatchSize = row.DefaultBatchSize

// RowBatch is the unit of data flowing between pipelined operators.
type RowBatch []row.Row

// BatchIterator is the Volcano-style pull interface of one partition's
// operator pipeline. Next returns the next batch (ok=false at end of
// stream); a batch is only valid until the following Next call. Close
// releases the pipeline early — it must be safe to call at any point,
// more than once, and must stop any producer goroutines upstream.
type BatchIterator interface {
	Next() (b RowBatch, ok bool, err error)
	Close()
}

// sliceBatches iterates an in-memory partition as zero-copy sub-slices.
type sliceBatches struct {
	rows []row.Row
	i    int
}

// NewSliceBatches returns a BatchIterator over an in-memory row slice,
// yielding DefaultBatchSize-row sub-slices without copying.
func NewSliceBatches(rows []row.Row) BatchIterator { return &sliceBatches{rows: rows} }

func (s *sliceBatches) Next() (RowBatch, bool, error) {
	if s.i >= len(s.rows) {
		return nil, false, nil
	}
	end := s.i + DefaultBatchSize
	if end > len(s.rows) {
		end = len(s.rows)
	}
	b := RowBatch(s.rows[s.i:end])
	s.i = end
	return b, true, nil
}

func (s *sliceBatches) Close() { s.i = len(s.rows) }

func closeAllIters(iters []BatchIterator) {
	for _, it := range iters {
		if it != nil {
			it.Close()
		}
	}
}

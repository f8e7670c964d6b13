package sqlengine

import "sqlml/internal/row"

// Managed storage. A managed table, like a materialized Result, holds each
// partition as sealed column chunks: *row.ColBatch values of at most
// DefaultBatchSize rows with a nil selection vector, vectors sized once
// when the chunk opens, and string slabs the chunk owns. A sealed chunk is
// never pooled and never written after it is published; a writer that
// grows a partition (INSERT) publishes a copy of the tail chunk instead.
// Scans read the chunks through a view of their own (chunkScan), so the
// columnar operators above them run on the stored vectors with no
// transpose; row consumers reach them through the pivoting adapters
// (chunkRows, Result.Parts and Result.Rows).

// chunkWriter packs one partition's rows into sealed chunks, copying them
// typed from column batches or transposing them from rows.
type chunkWriter struct {
	types   []row.Type
	left    int           // rows still to come when known (sizes the last chunk); < 0 = unknown
	size    int           // row capacity of cur
	cur     *row.ColBatch // open chunk, not yet published
	payload []int         // scratch: per-column VARCHAR bytes for the next chunk
	chunks  []*row.ColBatch
}

func newChunkWriter(types []row.Type, expect int) *chunkWriter {
	return &chunkWriter{types: types, left: expect, payload: make([]int, len(types))}
}

// room returns how many more rows the open chunk takes, opening one when
// it is full; pending is how many rows the caller has in hand and perRow(c)
// its estimate of column c's VARCHAR bytes per row. A chunk holds
// DefaultBatchSize rows, the last one of a known total exactly what is
// left. With the total unknown, the first chunk is sized to the rows in
// hand, so a small result takes no full-size vectors; should more arrive,
// that chunk is copied once into a full-size one before it is published.
func (w *chunkWriter) room(pending int, perRow func(c int) int) int {
	if w.cur != nil && w.cur.FullLen() < w.size {
		return w.size - w.cur.FullLen()
	}
	size := DefaultBatchSize
	switch {
	case w.left >= 0:
		size = min(max(w.left, 1), DefaultBatchSize)
	case w.cur == nil && len(w.chunks) == 0:
		size = min(max(pending, 1), DefaultBatchSize)
	}
	small := w.cur // full; copied into the next chunk if undersized
	if small == nil || w.left >= 0 || w.size == DefaultBatchSize {
		w.publish()
		small = nil
	}
	for c, t := range w.types {
		w.payload[c] = 0
		if t == row.TypeString {
			w.payload[c] = perRow(c) * size
		}
	}
	w.cur, w.size = row.NewColBatchCap(w.types, size, w.payload), size
	if small != nil {
		w.copyRows(small, 0, small.FullLen())
	}
	return w.size - w.cur.FullLen()
}

// copyRows appends b's live rows [lo, hi) to the open chunk, which has room
// for them, a column at a time.
func (w *chunkWriter) copyRows(b *row.ColBatch, lo, hi int) {
	pos := b.LivePos()[lo:hi]
	for c := range w.types {
		w.cur.Col(c).AppendGather(b.Col(c), pos)
	}
	w.cur.SetFullLen(w.cur.FullLen() + hi - lo)
}

// took counts n rows off the expected total.
func (w *chunkWriter) took(n int) {
	if w.left >= 0 {
		w.left -= n
	}
}

func (w *chunkWriter) publish() {
	if w.cur != nil && w.cur.FullLen() > 0 {
		w.chunks = append(w.chunks, w.cur)
	}
	w.cur = nil
}

// appendBatch copies b's first k live rows.
func (w *chunkWriter) appendBatch(b *row.ColBatch, k int) {
	for si := 0; si < k; {
		n := min(k-si, w.room(k-si, func(c int) int { return vectorBytesPerRow(b.Col(c)) }))
		w.copyRows(b, si, si+n)
		w.took(n)
		si += n
	}
}

// add copies all of b's live rows: a chunkWriter is the sink of a plain
// drain (drainChunks).
func (w *chunkWriter) add(b *row.ColBatch) error {
	w.appendBatch(b, b.Len())
	return nil
}

func (w *chunkWriter) end(err error) error { return err }

// appendPositions copies b's physical rows at pos, ascending: b's selection
// is narrowed to pos for the copy and restored after, so b reads the same
// to its producer.
func (w *chunkWriter) appendPositions(b *row.ColBatch, pos []int32) {
	sel := b.Sel()
	b.SetSel(pos)
	w.appendBatch(b, len(pos))
	b.SetSel(sel)
}

// appendRows transposes rows onto the chunks, column at a time.
func (w *chunkWriter) appendRows(rows []row.Row) {
	n := len(rows)
	for i := 0; i < n; {
		k := min(n-i, w.room(n-i, func(c int) int { return cellBytesPerRow(rows[i:min(n, i+DefaultBatchSize)], c) }))
		for c := range w.types {
			dst := w.cur.Col(c)
			for _, r := range rows[i : i+k] {
				dst.AppendValue(r[c])
			}
		}
		w.cur.SetFullLen(w.cur.FullLen() + k)
		w.took(k)
		i += k
	}
}

// finish publishes the open chunk and returns the partition.
func (w *chunkWriter) finish() []*row.ColBatch {
	w.publish()
	return w.chunks
}

// vectorBytesPerRow is a VARCHAR vector's mean payload per slot.
func vectorBytesPerRow(v *row.Vector) int {
	n := v.Len()
	if n == 0 {
		return 0
	}
	return (v.PayloadLen(n) + n - 1) / n
}

// cellBytesPerRow is column c's mean string payload over rows — exact for
// a chunk that holds just those rows.
func cellBytesPerRow(rows []row.Row, c int) int {
	total := 0
	for _, r := range rows {
		if v := r[c]; !v.Null && v.Kind == row.TypeString {
			total += len(v.AsString())
		}
	}
	return (total + len(rows) - 1) / len(rows)
}

// rowsToChunks transposes materialized row partitions into sealed chunks,
// each chunk sized exactly.
func rowsToChunks(types []row.Type, parts [][]row.Row) [][]*row.ColBatch {
	out := make([][]*row.ColBatch, len(parts))
	for i, p := range parts {
		w := newChunkWriter(types, len(p))
		w.appendRows(p)
		out[i] = w.finish()
	}
	return out
}

// appendChunkRows returns chunks grown by rows without writing to any
// published chunk: a tail chunk with room is replaced by a copy that takes
// the first rows, and the result is a new slice, so a scan holding the old
// one keeps reading exactly what it started on.
func appendChunkRows(types []row.Type, chunks []*row.ColBatch, rows []row.Row) []*row.ColBatch {
	keep := chunks
	expect := len(rows)
	var tail *row.ColBatch
	if n := len(chunks); n > 0 && chunks[n-1].FullLen() < DefaultBatchSize {
		keep, tail = chunks[:n-1], chunks[n-1]
		expect += tail.FullLen()
	}
	w := newChunkWriter(types, expect)
	if tail != nil {
		w.appendBatch(tail, tail.Len())
	}
	w.appendRows(rows)
	return append(keep[:len(keep):len(keep)], w.finish()...)
}

// chunkRows pivots a partition's chunks to owning rows.
func chunkRows(chunks []*row.ColBatch) []row.Row {
	out := make([]row.Row, 0, chunkLen(chunks))
	for _, c := range chunks {
		out = c.Rows(out)
	}
	return out
}

// chunkLen is a partition's row count.
func chunkLen(chunks []*row.ColBatch) int {
	n := 0
	for _, c := range chunks {
		n += c.FullLen()
	}
	return n
}

// chunkBytes is colBatchBytes over a chunked partition.
func chunkBytes(chunks []*row.ColBatch) int {
	n := 0
	for _, c := range chunks {
		n += colBatchBytes(c)
	}
	return n
}

// chunkScan reads one partition's sealed chunks through a view batch of
// its own. Every chunk gets a fresh copy of its vector headers and a nil
// selection, so a filter narrowing the view, or anything set on its
// headers, never reaches the chunk or another scan of it. The view is not
// pooled: its backing arrays are the chunk's.
type chunkScan struct {
	chunks []*row.ColBatch
	i      int
	view   row.ColBatch
}

func (s *chunkScan) NextCol() (*row.ColBatch, bool, error) {
	if s.i >= len(s.chunks) {
		return nil, false, nil
	}
	s.view.ViewOf(s.chunks[s.i])
	s.i++
	return &s.view, true, nil
}

func (s *chunkScan) Close() { s.i = len(s.chunks) }

// chunkIters returns a fresh scan of every partition.
func chunkIters(parts [][]*row.ColBatch) []ColBatchSource {
	iters := make([]ColBatchSource, len(parts))
	for i, p := range parts {
		iters[i] = &chunkScan{chunks: p}
	}
	return iters
}

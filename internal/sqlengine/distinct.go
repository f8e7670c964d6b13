package sqlengine

import "sqlml/internal/row"

// Parallel DISTINCT: a local pass de-duplicates every partition, then a
// hash repartition colocates equal rows and de-duplicates each
// destination as it fills it — every step on the query pool, one task per
// partition. Both passes key every live position with the vector key
// codec (row.AppendVectorKey, byte-identical to row.AppendKey over the
// row) and copy the first instance of each key into sealed chunks in
// input order, so the output is a function of the input alone,
// byte-identical at any Parallelism.

// appendRowKey appends the key encoding of physical row p of b.
func appendRowKey(dst []byte, b *row.ColBatch, p int) []byte {
	for c := 0; c < b.NumCols(); c++ {
		dst = row.AppendVectorKey(dst, b.Col(c), p)
	}
	return dst
}

// firstSeen inserts the key of every live row of b into table and appends
// the physical positions of the rows it had not seen to keep.
func firstSeen(table *HashTable, key []byte, b *row.ColBatch, keep []int32) ([]byte, []int32) {
	for si, k := 0, b.Len(); si < k; si++ {
		p := b.SelPos(si)
		key = appendRowKey(key[:0], b, p)
		if _, added := table.Insert(key); added {
			keep = append(keep, int32(p))
		}
	}
	return key, keep
}

// dedupParts de-duplicates every partition independently: the first
// instance of each row wins, and input order is kept.
func dedupParts(qp *queryPool, iters []ColBatchSource, types []row.Type) ([][]*row.ColBatch, error) {
	sinks := make([]*dedupSink, len(iters))
	err := qp.drain(iters, func(i int) (partSink, error) {
		sinks[i] = &dedupSink{chunkWriter: newChunkWriter(types, -1), table: NewHashTable()}
		return sinks[i], nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]*row.ColBatch, len(sinks))
	for i, s := range sinks {
		out[i] = s.finish()
	}
	return out, nil
}

// dedupSink is one partition's local de-duplication pass, copying the
// rows its table had not seen.
type dedupSink struct {
	*chunkWriter
	table *HashTable
	key   []byte
	keep  []int32
}

func (d *dedupSink) add(b *row.ColBatch) error {
	d.key, d.keep = firstSeen(d.table, d.key, b, d.keep[:0])
	d.appendPositions(b, d.keep)
	return nil
}

// shuffleDedup moves every row to partition Hash64(key) mod n, so equal
// rows colocate, and de-duplicates each destination over its rows in
// source order. Each source partition routes its rows on the pool, then
// each destination fills on the pool; the network is charged, per source
// and destination, the chunkBytes of the rows that move.
func (e *Engine) shuffleDedup(qp *queryPool, parts [][]*row.ColBatch, types []row.Type) ([][]*row.ColBatch, error) {
	n := len(parts)
	route := make([][][][]int32, n) // [src][chunk][dst]positions
	err := qp.forEach(n, func(src, _ int) error {
		var key []byte
		route[src] = make([][][]int32, len(parts[src]))
		for ci, c := range parts[src] {
			dst := make([][]int32, n)
			for p := range c.FullLen() {
				key = appendRowKey(key[:0], c, p)
				d := row.Hash64(key) % uint64(n)
				dst[d] = append(dst[d], int32(p))
			}
			route[src][ci] = dst
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]*row.ColBatch, n)
	moved := make([][]int, n) // [dst][src]bytes
	err = qp.forEach(n, func(d, _ int) error {
		moved[d] = make([]int, n)
		table := NewHashTable()
		w := newChunkWriter(types, -1)
		var key []byte
		var keep []int32
		var view row.ColBatch
		for src := range n {
			for ci, c := range parts[src] {
				pos := route[src][ci][d]
				if len(pos) == 0 {
					continue
				}
				view.ViewOf(c)
				view.SetSel(pos)
				moved[d][src] += colBatchBytes(&view)
				key, keep = firstSeen(table, key, &view, keep[:0])
				w.appendPositions(&view, keep)
			}
		}
		out[d] = w.finish()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for src := range n {
		for dst := range n {
			if b := moved[dst][src]; b > 0 && e.workers[src] != e.workers[dst] {
				e.cost.ChargeNet(e.workers[src], e.workers[dst], b)
			}
		}
	}
	return out, nil
}

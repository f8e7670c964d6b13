package sqlengine

import (
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/row"
)

// Hash-join build. The build side arrives as sealed chunks (drainChunks):
// at most DefaultBatchSize rows each, packed full in partition-major
// order. Building is one pool pass and one serial combine:
//
//  1. Key scan — one pool task per chunk evaluates the build key kernels
//     and packs its rows' norm keys back to back (packKeys, the routine
//     the probe packs its keys with), hashing each key once (hash 0 marks
//     a NULL key component, which never matches).
//  2. Insert — one serial scan of the keyed chunks in order inserts every
//     key into one arena HashTable and counts rows per key, and a second
//     places every row in its key's bucket of one CSR array. The in-order
//     scans keep every bucket's entries in global build-row order.
//
// The key scan's tasks are a function of the input alone, so the probe
// output is byte-identical at any Parallelism. A key-less (cartesian)
// build packs every row's key empty, so one bucket holds every build row.

// buildRef addresses one build row: a chunk of the build side and a
// position in it.
type buildRef = row.ChunkRef

// buildTable is the probe-side view of a hash-join build: the arena
// table's dense index idx of a key addresses its bucket of build rows,
// refs[offs[idx]:offs[idx+1]] — one array (CSR), not one slice per key.
type buildTable struct {
	table  *HashTable
	offs   []int32
	refs   []buildRef
	chunks []*row.ColBatch // the build side, partition-major
}

// bucket returns the build rows matching key, whose hashNonZero is h, in
// global build-row order.
func (bt *buildTable) bucket(key []byte, h uint64) []buildRef {
	idx, ok := bt.table.LookupHashed(key, h)
	if !ok {
		return nil
	}
	return bt.refs[bt.offs[idx]:bt.offs[idx+1]]
}

// packedKeys holds the norm keys of one batch's live rows: key i is
// flat[offs[i]:offs[i+1]], and hashes[i] its hashNonZero, or 0 when a
// component is NULL (such a row never matches and packs an empty key).
type packedKeys struct {
	flat   []byte
	offs   []uint32
	hashes []uint64
	vecs   []*row.Vector // scratch: the key kernels' results
}

func (k *packedKeys) key(i int) []byte { return k.flat[k.offs[i]:k.offs[i+1]] }

// packKeys evaluates the key kernels over b's live rows and packs their
// norm keys into k, reusing its buffers. With no kernels every key is
// empty, which is how the cartesian join pairs every row with every row.
func packKeys(ctx *vecCtx, fns []vecFn, b *row.ColBatch, k *packedKeys) error {
	ctx.reclaim()
	k.vecs = k.vecs[:0]
	for _, fn := range fns {
		v, err := fn(ctx, b, b.Sel())
		if err != nil {
			return err
		}
		k.vecs = append(k.vecs, v)
	}
	n := b.Len()
	if cap(k.hashes) < n {
		k.offs, k.hashes = make([]uint32, 0, n+1), make([]uint64, 0, n)
	}
	k.flat = k.flat[:0]
	k.offs = append(k.offs[:0], 0)
	k.hashes = k.hashes[:0]
	for si := 0; si < n; si++ {
		p := b.SelPos(si)
		start := len(k.flat)
		null := false
		for _, kv := range k.vecs {
			if null = kv.Null(p); null {
				break
			}
			k.flat = row.AppendNormVectorKey(k.flat, kv, p)
		}
		var h uint64
		if null {
			k.flat = k.flat[:start]
		} else {
			h = hashNonZero(k.flat[start:])
		}
		k.offs = append(k.offs, uint32(len(k.flat)))
		k.hashes = append(k.hashes, h)
	}
	return nil
}

// buildHashTable builds the hash table over the drained build partitions:
// the key scan on the pool, then one serial insert and bucket fill.
func buildHashTable(qp *queryPool, parts [][]*row.ColBatch, keyFns []vecFn) (*buildTable, error) {
	var chunks []*row.ColBatch
	for _, p := range parts {
		chunks = append(chunks, p...)
	}
	keyed := make([]packedKeys, len(chunks))
	err := hadoopfmt.RunTasks(qp.ctx, qp.cancel, len(chunks), qp.n, func(c int) error {
		var ctx vecCtx
		return packKeys(&ctx, keyFns, chunks[c], &keyed[c])
	})
	if err != nil {
		return nil, err
	}

	// Insert: note each keyed row's dense index, count rows per index in
	// offs[idx+1].
	t := NewHashTable()
	idxs := make([]int32, 0, chunkLen(chunks))
	offs := []int32{0}
	for c := range keyed {
		k := &keyed[c]
		for i, h := range k.hashes {
			if h == 0 {
				continue
			}
			idx, added := t.InsertHashed(k.key(i), h)
			if added {
				offs = append(offs, 0)
			}
			offs[idx+1]++
			idxs = append(idxs, int32(idx))
		}
	}
	// Prefix sums make offs[idx] bucket idx's start; the in-order fill
	// advances it to bucket idx+1's start, so a shift right by one restores
	// the starts.
	for i := 1; i < len(offs); i++ {
		offs[i] += offs[i-1]
	}
	refs := make([]buildRef, len(idxs))
	j := 0
	for c := range keyed {
		for i, h := range keyed[c].hashes {
			if h == 0 {
				continue
			}
			idx := idxs[j]
			j++
			refs[offs[idx]] = buildRef{Chunk: int32(c), Pos: int32(i)}
			offs[idx]++
		}
	}
	copy(offs[1:], offs)
	offs[0] = 0
	return &buildTable{table: t, offs: offs, refs: refs, chunks: chunks}, nil
}

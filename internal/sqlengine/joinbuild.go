package sqlengine

import (
	"sqlml/internal/row"
)

// Parallel hash-join build. The build side arrives as sealed chunks
// (drainChunks): at most DefaultBatchSize rows each, packed full in
// partition-major order. Building runs in two pool passes over them:
//
//  1. Key scan — every chunk independently evaluates the build key
//     kernels and packs its rows' norm keys back to back (packKeys, the
//     routine the probe packs its keys with), hashing each key once (hash
//     0 marks a NULL key component, which never matches). Chunks are
//     claimed from the pool, so one skewed build partition does not
//     serialize the scan.
//  2. Sharded insert — the key space is split by the high bits of the
//     finalized hash (shardOf) into power-of-two shards, one arena
//     HashTable per shard, and each shard is built by one pool task
//     scanning the keyed chunks in order: once to insert keys and count
//     rows per key, once to place every row in its key's bucket of the
//     shard's one CSR array. Rows of one key always live in one shard,
//     so shards need no locks, and the in-order scans keep every
//     bucket's entries in exactly the global row order a sequential
//     build produces.
//
// Both pass boundaries are deterministic functions of the input (chunk
// grid, hash routing), never of the schedule, so the probe output is
// byte-identical at any Parallelism — including the shard layout itself,
// which depends only on the shard count, and the shard count only on the
// pool size in a way the probe cannot observe (bucket contents and their
// order are shard-independent). A key-less (cartesian) build packs every
// row's key empty, so one bucket holds every build row.

// buildShards picks the shard count for a pool of the given size: the
// smallest power of two covering the workers, capped so tiny tables do
// not fan out into dozens of near-empty tables.
func buildShards(workers int) (shards int, shift uint) {
	s, bits := 1, uint(0)
	for s < workers && s < 16 {
		s <<= 1
		bits++
	}
	return s, 64 - bits
}

// shardOf routes a key hash to its shard by the high bits of the hash
// after murmur3's fmix64 finalizer. FNV-1a's own top bits mix poorly over
// short keys (the integers 0..63 all land in one shard of two); slot
// probing inside a shard keeps the raw hash.
func shardOf(h uint64, shift uint) int {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h >> shift)
}

// buildRef addresses one build row: a chunk of the build side and a
// position in it.
type buildRef = row.ChunkRef

// buildTable is the probe-side view of a sharded hash-join build: key
// lookup routes by shardOf to one shard's arena table, whose
// dense index idx addresses that shard's bucket of build rows,
// refs[s][offs[s][idx]:offs[s][idx+1]] — one array per shard (CSR), not
// one slice per key.
type buildTable struct {
	shift  uint
	shards []*HashTable
	offs   [][]int32
	refs   [][]buildRef
	chunks []*row.ColBatch // the build side, partition-major
}

// bucket returns the build rows matching key, whose hashNonZero is h, in
// global build-row order.
func (bt *buildTable) bucket(key []byte, h uint64) []buildRef {
	s := 0
	if len(bt.shards) > 1 {
		s = shardOf(h, bt.shift)
	}
	idx, ok := bt.shards[s].LookupHashed(key, h)
	if !ok {
		return nil
	}
	offs := bt.offs[s]
	return bt.refs[s][offs[idx]:offs[idx+1]]
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

// buildHashTable runs the two-pass parallel build over the drained build
// partitions.
func buildHashTable(qp *queryPool, parts [][]*row.ColBatch, keyFns []vecFn) (*buildTable, error) {
	var chunks []*row.ColBatch
	for _, p := range parts {
		chunks = append(chunks, p...)
	}
	keyed := make([]packedKeys, len(chunks))
	ctxs := make([]vecCtx, qp.n)
	err := qp.forEach(len(chunks), func(c, w int) error {
		return packKeys(&ctxs[w], keyFns, chunks[c], &keyed[c])
	})
	if err != nil {
		return nil, err
	}

	shards, shift := buildShards(qp.n)
	bt := &buildTable{
		shift:  shift,
		shards: make([]*HashTable, shards),
		offs:   make([][]int32, shards),
		refs:   make([][]buildRef, shards),
		chunks: chunks,
	}
	err = qp.forEach(shards, func(s, _ int) error {
		routed := func(h uint64) bool { return h != 0 && (shards == 1 || shardOf(h, shift) == s) }
		// Insert: note each routed row's dense index, count rows per
		// index in offs[idx+1].
		t := NewHashTable()
		var idxs []int32
		offs := []int32{0}
		for c := range keyed {
			k := &keyed[c]
			for i, h := range k.hashes {
				if !routed(h) {
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
		// Prefix sums make offs[idx] bucket idx's start; the in-order
		// fill advances it to bucket idx+1's start, so a shift right by
		// one restores the starts.
		for i := 1; i < len(offs); i++ {
			offs[i] += offs[i-1]
		}
		refs := make([]buildRef, len(idxs))
		j := 0
		for c := range keyed {
			for i, h := range keyed[c].hashes {
				if !routed(h) {
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
		bt.shards[s], bt.offs[s], bt.refs[s] = t, offs, refs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return bt, nil
}

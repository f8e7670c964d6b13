package sqlengine

import (
	"bytes"

	"sqlml/internal/row"
)

// Sort-merge ORDER BY over sealed chunks. The sort keys are kernel
// vectors evaluated once per input chunk; the sort and the merge move
// (chunk, position) refs, never rows. Each partition is one pool task that
// evaluates its chunks' keys and stable-sorts its refs into one run; one
// stable k-way loser tree merges the runs, and the merged refs are
// gathered into sealed chunks at partition 0. Ties break toward the lower
// partition index and, within a partition, toward the earlier row — the
// order of a stable sort of the concatenated partitions.

// sortRef addresses one input row: a chunk of the sort input and a
// physical position in it.
type sortRef = row.ChunkRef

// orderSpec is one ORDER BY item's direction.
type orderSpec struct{ desc bool }

// sortKeys holds the sort-key vectors of every input chunk, [chunk][key].
type sortKeys struct {
	specs []orderSpec
	keys  [][]*row.Vector
}

// compare orders two refs under the ORDER BY directions.
func (s *sortKeys) compare(a, b sortRef) int {
	ka, kb := s.keys[a.Chunk], s.keys[b.Chunk]
	for i, sp := range s.specs {
		c := compareCells(ka[i], int(a.Pos), kb[i], int(b.Pos))
		if c == 0 {
			continue
		}
		if sp.desc {
			return -c
		}
		return c
	}
	return 0
}

// compareCells orders slot p of a against slot q of b, two vectors of one
// sort key (so of one type), exactly as Value.Compare orders their values:
// NULL sorts lowest, -0 ties with 0, and NaN ties with NaN and sorts above
// every number.
func compareCells(a *row.Vector, p int, b *row.Vector, q int) int {
	an, bn := a.Null(p), b.Null(q)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	switch a.Type() {
	case row.TypeInt:
		return cmpOrdered(a.Ints[p], b.Ints[q])
	case row.TypeFloat:
		return cmpOrdered(a.Floats[p], b.Floats[q])
	case row.TypeString:
		return bytes.Compare(a.Bytes(p), b.Bytes(q))
	default:
		return cmpOrdered(boolRank(a.Bools[p]), boolRank(b.Bools[q]))
	}
}

// cmpOrdered is -1, 0 or +1 by < and >, with NaN (the only value unequal
// to itself) equal to NaN and above everything else.
func cmpOrdered[T int64 | float64 | int](x, y T) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	case x == y:
		return 0
	}
	return boolRank(x != x) - boolRank(y != y)
}

func boolRank(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sortParts sorts sealed chunk partitions by the ORDER BY key kernels into
// one partition of sealed chunks.
func sortParts(qp *queryPool, specs []orderSpec, keyFns []vecFn, types []row.Type, parts [][]*row.ColBatch) ([]*row.ColBatch, error) {
	var chunks []*row.ColBatch
	first := make([]int, len(parts)) // each partition's first chunk index
	for i, p := range parts {
		first[i] = len(chunks)
		chunks = append(chunks, p...)
	}
	s := &sortKeys{specs: specs, keys: make([][]*row.Vector, len(chunks))}
	runs := make([][]sortRef, len(parts))
	err := qp.forEach(len(parts), func(i int) error {
		// The context is never reclaimed and each chunk's keys are
		// evaluated over a view of it that outlives the sort, so every key
		// vector, a passthrough one included, stays valid.
		var ctx vecCtx
		run := make([]sortRef, 0, chunkLen(parts[i]))
		for j, c := range parts[i] {
			ci := first[i] + j
			view := new(row.ColBatch)
			view.ViewOf(c)
			keys := make([]*row.Vector, len(keyFns))
			for k, fn := range keyFns {
				v, err := fn(&ctx, view, nil)
				if err != nil {
					return err
				}
				keys[k] = v
			}
			s.keys[ci] = keys
			for pos := range c.FullLen() {
				run = append(run, sortRef{Chunk: int32(ci), Pos: int32(pos)})
			}
		}
		stableSortBy(run, s.compare)
		runs[i] = run
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged := mergeRuns(s.compare, runs)
	w := newChunkWriter(types, len(merged))
	for i := 0; i < len(merged); {
		refs := merged[i:]
		n := min(len(refs), w.room(len(refs), func(c int) int { return refBytesPerRow(chunks, refs, c) }))
		for c := range types {
			w.cur.Col(c).AppendGatherRefs(chunks, c, refs[:n])
		}
		w.cur.SetFullLen(w.cur.FullLen() + n)
		w.took(n)
		i += n
	}
	return w.finish(), nil
}

// refBytesPerRow is column c's mean VARCHAR payload over the first
// DefaultBatchSize refs — exact for a chunk that holds just those rows.
func refBytesPerRow(chunks []*row.ColBatch, refs []sortRef, c int) int {
	refs = refs[:min(len(refs), DefaultBatchSize)]
	total := 0
	for _, r := range refs {
		if v := chunks[r.Chunk].Col(c); !v.Null(int(r.Pos)) {
			total += len(v.Bytes(int(r.Pos)))
		}
	}
	return (total + len(refs) - 1) / len(refs)
}

// stableSortBy stably sorts refs under cmp — a bottom-up merge sort
// (merges prefer the left half on ties, which makes stability structural)
// with a single scratch slice instead of sort.SliceStable's comparator
// indirection and block rotations.
func stableSortBy(refs []sortRef, cmp func(a, b sortRef) int) {
	n := len(refs)
	if n < 2 {
		return
	}
	buf := make([]sortRef, n)
	src, dst := refs, buf
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := min(lo+width, n)
			hi := min(mid+width, n)
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if cmp(src[i], src[j]) <= 0 {
					dst[k] = src[i]
					i++
				} else {
					dst[k] = src[j]
					j++
				}
				k++
			}
			copy(dst[k:hi], src[i:mid])
			copy(dst[k+(mid-i):hi], src[j:hi])
		}
		src, dst = dst, src
	}
	if &src[0] != &refs[0] {
		copy(refs, src)
	}
}

// mergeRuns merges the sorted runs with a loser tree: k-1 internal nodes
// each hold the loser of their subtree's match, the root's winner is the
// next ref to emit, and replacing the emitted run's head replays only its
// leaf-to-root path — O(log k) comparisons per ref.
func mergeRuns(cmp func(a, b sortRef) int, runs [][]sortRef) []sortRef {
	k := len(runs)
	if k == 1 {
		return runs[0]
	}
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	out := make([]sortRef, 0, total)
	if k == 0 {
		return out
	}
	pos := make([]int, k)

	// beats reports whether run a's head must be emitted before run b's:
	// exhausted runs lose to everything, equal keys break toward the lower
	// run index (stability across partitions).
	beats := func(a, b int) bool {
		if pos[a] >= len(runs[a]) {
			return false
		}
		if pos[b] >= len(runs[b]) {
			return true
		}
		if c := cmp(runs[a][pos[a]], runs[b][pos[b]]); c != 0 {
			return c < 0
		}
		return a < b
	}

	// tree[1..k-1] are internal nodes (losers); leaves live implicitly at
	// positions k..2k-1, leaf k+i holding run i. Build bottom-up.
	tree := make([]int, k)
	var build func(node int) int
	build = func(node int) int {
		if node >= k {
			return node - k
		}
		l := build(2 * node)
		r := build(2*node + 1)
		if beats(l, r) {
			tree[node] = r
			return l
		}
		tree[node] = l
		return r
	}
	winner := build(1)

	for range total {
		out = append(out, runs[winner][pos[winner]])
		pos[winner]++
		// Replay the winner's path: at each ancestor, the stored loser
		// challenges; the new winner continues up.
		for node := (k + winner) / 2; node >= 1; node /= 2 {
			if beats(tree[node], winner) {
				winner, tree[node] = tree[node], winner
			}
		}
	}
	return out
}

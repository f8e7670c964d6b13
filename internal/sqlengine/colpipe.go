package sqlengine

import (
	"sqlml/internal/cluster"
	"sqlml/internal/row"
)

// The operator pipeline. Every operator, scan and pipeline breaker pulls
// its input and hands its output through one interface, ColBatchSource:
// filters refine a batch's selection vector in place — zero copies — and
// projections assemble output batches from kernel result vectors. Rows
// appear only at the edge, in the row view Result.Batches wraps around
// each partition (batch.go).

// ColBatchSource is the engine's pull contract. NextCol returns the next
// batch (ok=false at end of stream); the batch, and every vector, slice or
// selection aliasing it, is valid only until the following NextCol, so a
// consumer copies what it keeps (the batchretain analyzer polices this).
// Close releases the chain early: it must be safe at any point and more
// than once, and it stops any producer goroutine upstream. It is also the
// input of a table UDF (TableUDF).
type ColBatchSource interface {
	NextCol() (b *row.ColBatch, ok bool, err error)
	Close()
}

// NewRowSource serves rows as column batches of up to DefaultBatchSize
// rows: a scan of the sealed chunks they transpose into.
func NewRowSource(rows []row.Row, types []row.Type) ColBatchSource {
	return &chunkScan{chunks: rowsToChunks(types, [][]row.Row{rows})[0]}
}

// closeAllIters closes every partition pipeline (Close is idempotent).
func closeAllIters(iters []ColBatchSource) {
	for _, it := range iters {
		if it != nil {
			it.Close()
		}
	}
}

// colFilterIter evaluates a boolean kernel over each batch and narrows the
// selection vector to the surviving positions; no rows move. Batches left
// with zero live rows are skipped, like the row filter's empty batches.
type colFilterIter struct {
	in   ColBatchSource
	pred vecFn
	ctx  vecCtx
	sel  []int32
	done bool
}

func newColFilterIter(in ColBatchSource, pred vecFn) *colFilterIter {
	return &colFilterIter{in: in, pred: pred}
}

func (f *colFilterIter) NextCol() (*row.ColBatch, bool, error) {
	if f.done {
		return nil, false, nil
	}
	for {
		b, ok, err := f.in.NextCol()
		if err != nil || !ok {
			f.done = true
			return nil, false, err
		}
		f.ctx.reclaim()
		v, err := f.pred(&f.ctx, b, b.Sel())
		if err != nil {
			f.done = true
			return nil, false, err
		}
		sel := f.sel[:0]
		vnull := v.HasNulls()
		if cur := b.Sel(); cur != nil {
			for _, pp := range cur {
				p := int(pp)
				if (!vnull || !v.Null(p)) && v.Bools[p] {
					sel = append(sel, pp)
				}
			}
		} else {
			for p := 0; p < b.FullLen(); p++ {
				if (!vnull || !v.Null(p)) && v.Bools[p] {
					sel = append(sel, int32(p))
				}
			}
		}
		f.sel = sel
		if len(sel) == 0 {
			continue
		}
		b.SetSel(sel)
		return b, true, nil
	}
}

func (f *colFilterIter) Close() {
	f.done = true
	f.in.Close()
}

// colProjectIter evaluates the compiled select-list kernels over each
// batch and assembles the output batch from the result vectors (zero-copy
// struct-header adoption; the selection vector carries through).
type colProjectIter struct {
	in    ColBatchSource
	fns   []vecFn
	types []row.Type
	ctx   vecCtx
	out   *row.ColBatch
	done  bool
}

func newColProjectIter(in ColBatchSource, fns []vecFn, types []row.Type) *colProjectIter {
	return &colProjectIter{in: in, fns: fns, types: types}
}

func (p *colProjectIter) NextCol() (*row.ColBatch, bool, error) {
	if p.done {
		return nil, false, nil
	}
	b, ok, err := p.in.NextCol()
	if err != nil || !ok {
		p.done = true
		return nil, false, err
	}
	p.ctx.reclaim()
	if p.out == nil {
		// Deliberately NOT pooled: passthrough kernels return input column
		// headers, so out's vectors can alias the scan's pooled batch —
		// returning both to the pool would hand the same backing arrays to
		// two future owners.
		p.out = row.NewColBatch(p.types)
	}
	for i, fn := range p.fns {
		v, err := fn(&p.ctx, b, b.Sel())
		if err != nil {
			p.done = true
			return nil, false, err
		}
		p.out.SetCol(i, v)
	}
	p.out.SetFullLen(b.FullLen())
	p.out.SetSel(b.Sel())
	return p.out, true, nil
}

func (p *colProjectIter) Close() {
	p.done = true
	p.in.Close()
}

// vecExprs compiles a kernel per expression, returning the static types
// alongside.
func vecExprs(exprs []Expr, sc *scope, reg *Registry) ([]vecFn, []row.Type, error) {
	fns := make([]vecFn, len(exprs))
	types := make([]row.Type, len(exprs))
	for i, ex := range exprs {
		fn, t, err := compileVec(ex, sc, reg)
		if err != nil {
			return nil, nil, err
		}
		fns[i], types[i] = fn, t
	}
	return fns, types, nil
}

// colProbeIter is the hash-join probe: key kernels run over the whole
// input batch at its live positions, the per-position norm keys probe the
// build table, and the matches are gathered into one pooled output
// batch — the kept probe-side columns copied typed from the input vectors,
// the kept build-side columns from the matched build chunks'. With no key
// kernels it is the cartesian join: every key is empty, and so is every
// build key, so each live row matches the one bucket that holds every
// build row. The output
// owns every cell (string payloads included), so it outlives the input
// batch. It holds at most DefaultBatchSize rows: a bucket that overflows
// it resumes on the next NextCol, before the input is pulled again.
type colProbeIter struct {
	in     ColBatchSource
	keyFns []vecFn
	ctx    vecCtx
	build  *buildTable // read-only, shared across probe workers
	types  []row.Type  // output columns: the probe side's, then the build side's
	cost   *cluster.CostModel
	node   *cluster.Node

	keys    packedKeys    // norm keys of cur's live rows
	cur     *row.ColBatch // input batch being probed; nil once exhausted
	si      int           // next live ordinal of cur to probe
	rest    []buildRef    // matches of physical row restPos not yet emitted
	restPos int32
	mPos    []int32    // per gathered match: physical probe row
	mRefs   []buildRef // per gathered match: build row
	out     *row.ColBatch
	done    bool

	// The input and build columns the output keeps, ascending (the join
	// node's probeCols and buildCols).
	probeCols, buildCols []int
}

func (p *colProbeIter) NextCol() (*row.ColBatch, bool, error) {
	if p.done {
		return nil, false, nil
	}
	for {
		if p.cur == nil {
			b, ok, err := p.in.NextCol()
			if err != nil || !ok {
				p.done = true
				return nil, false, err
			}
			// Probing the batch is one pass over it.
			if p.node != nil {
				p.cost.ChargeProc(p.node, colBatchBytes(b))
			}
			if err := p.load(b); err != nil {
				p.done = true
				return nil, false, err
			}
		}
		b := p.cur
		p.mPos, p.mRefs = p.mPos[:0], p.mRefs[:0]
		p.take(p.restPos, p.rest)
		for k := b.Len(); len(p.rest) == 0 && p.si < k; p.si++ {
			h := p.keys.hashes[p.si]
			if h == 0 {
				continue
			}
			if bucket := p.build.bucket(p.keys.key(p.si), h); len(bucket) > 0 {
				p.take(int32(b.SelPos(p.si)), bucket)
			}
		}
		if len(p.rest) == 0 {
			p.cur = nil // every live row probed: pull the next input batch
		}
		if len(p.mPos) == 0 {
			continue
		}
		p.gather(b)
		return p.out, true, nil
	}
}

// load makes b the batch being probed and packs its live rows' norm keys.
// The probe holds b only until every live row is probed, and pulls no
// input meanwhile, so b stays inside its validity window.
func (p *colProbeIter) load(b *row.ColBatch) error {
	p.cur, p.si = b, 0
	return packKeys(&p.ctx, p.keyFns, b, &p.keys)
}

// take queues the matches of physical probe row pos, as many as the output
// batch has room for, and keeps the rest for the next NextCol.
func (p *colProbeIter) take(pos int32, bucket []buildRef) {
	n := min(len(bucket), row.DefaultBatchSize-len(p.mPos))
	for range n {
		p.mPos = append(p.mPos, pos)
	}
	p.mRefs = append(p.mRefs, bucket[:n]...)
	p.rest, p.restPos = bucket[n:], pos
}

// gather writes the kept columns of the queued matches into the output
// batch, a column at a time.
func (p *colProbeIter) gather(b *row.ColBatch) {
	if p.out == nil {
		p.out = row.GetColBatch(p.types)
	} else {
		p.out.Reset(p.types)
	}
	for i, c := range p.probeCols {
		p.out.Col(i).AppendGather(b.Col(c), p.mPos)
	}
	for i, c := range p.buildCols {
		p.out.Col(len(p.probeCols)+i).AppendGatherRefs(p.build.chunks, c, p.mRefs)
	}
	p.out.SetFullLen(len(p.mPos))
}

func (p *colProbeIter) Close() {
	p.done = true
	p.cur, p.rest = nil, nil
	p.in.Close()
	if p.out != nil {
		row.PutColBatch(p.out)
		p.out = nil
	}
}

// chargeColIter charges each consumed batch as one processing pass over its
// bytes — a table UDF's read of its input.
type chargeColIter struct {
	c    ColBatchSource
	cost *cluster.CostModel
	node *cluster.Node
}

func (c *chargeColIter) NextCol() (*row.ColBatch, bool, error) {
	b, ok, err := c.c.NextCol()
	if ok {
		c.cost.ChargeProc(c.node, colBatchBytes(b))
	}
	return b, ok, err
}

func (c *chargeColIter) Close() { c.c.Close() }

// colBatchBytes estimates the wire bytes of a batch's live rows for cost
// charging: 4 bytes of framing per row, and per value 9 for a BIGINT or
// DOUBLE, 2 for a BOOLEAN, and 5 plus its length for a VARCHAR (1 if
// NULL).
func colBatchBytes(b *row.ColBatch) int {
	k := b.Len()
	n := k * 4 // frame overhead
	for c := 0; c < b.NumCols(); c++ {
		col := b.Col(c)
		switch col.Type() {
		case row.TypeString:
			if b.Sel() == nil && !col.HasNulls() {
				// Dense: every slot is live and non-NULL, so the payload is
				// the slab — one offset read, no walk.
				n += 5*k + col.PayloadLen(k)
				continue
			}
			for si := 0; si < k; si++ {
				p := b.SelPos(si)
				if col.Null(p) {
					n++
				} else {
					n += 5 + len(col.Bytes(p))
				}
			}
		case row.TypeBool:
			n += k * 2
		default:
			n += k * 9
		}
	}
	return n
}

package row

import (
	"fmt"
	"slices"
	"sync"
)

// Column-major batches. A ColBatch is the vectorized twin of the engine's
// row-major batch: one typed Vector per column (int64 / float64 / bool
// backing arrays, byte-sliced strings), a per-column null bitmap, and a
// batch-level selection vector. Operators evaluate whole columns in tight
// loops; filters refine the selection vector instead of copying rows; rows
// are materialized only at the UDF and wire boundaries.
//
// Validity contract (the columnar extension of the RowBatch rule enforced
// by the batchretain analyzer): a *ColBatch returned by an iterator's
// NextCol — and every Vector, backing slice, or selection vector aliasing
// it — is only valid until the following NextCol call. Producers recycle
// the batch's vectors, so anything kept longer must be copied out first
// (Rows materializes owning copies).

// DefaultBatchSize is how many rows flow through the execution pipeline
// per batch, and the row budget of one wire block (BlockTargetRows):
// vector capacity and wire framing agree by construction. Large enough to
// amortize per-batch overhead, small enough that a full pipeline holds
// O(batch × depth) rows instead of O(dataset).
const DefaultBatchSize = 1024

// Vector is one column of a ColBatch: a typed value array plus a null
// bitmap. Exactly one of the backing arrays is in use, per Type. String
// payloads are byte-sliced: one concatenated byte slab plus n+1 offsets,
// so a string column costs two allocations per batch, not one per value.
//
// A Vector is either built sequentially (Reset + Append*) or pre-sized for
// positional writes (ResetDense + Set*); string vectors support only
// sequential building (PadTo fills gaps when writing a sparse selection).
type Vector struct {
	typ Type
	n   int

	Ints   []int64
	Floats []float64
	Bools  []bool

	bytes []byte   // concatenated string payloads
	offs  []uint32 // len n+1 once built; offs[0] == 0

	nulls    []uint64 // 1 bit per slot; nil or all-zero = no nulls
	hasNulls bool
}

// Type returns the vector's column type.
func (v *Vector) Type() Type { return v.typ }

// Len returns the vector's physical length.
func (v *Vector) Len() int { return v.n }

// HasNulls reports whether any slot has been marked NULL since the last
// reset.
func (v *Vector) HasNulls() bool { return v.hasNulls }

// Reset clears the vector to an empty sequential builder of type t,
// keeping backing capacity.
func (v *Vector) Reset(t Type) {
	v.typ = t
	v.n = 0
	v.Ints = v.Ints[:0]
	v.Floats = v.Floats[:0]
	v.Bools = v.Bools[:0]
	v.bytes = v.bytes[:0]
	v.offs = append(v.offs[:0], 0)
	v.clearNulls(0)
}

// ResetDense clears the vector and pre-sizes it for n positional writes.
// Value slots start zeroed; null bits start cleared. Not supported for
// VARCHAR (string vectors build sequentially).
func (v *Vector) ResetDense(t Type, n int) {
	if t == TypeString {
		panic("row: ResetDense on a VARCHAR vector; build strings sequentially")
	}
	v.typ = t
	v.n = n
	v.bytes = v.bytes[:0]
	v.offs = v.offs[:0]
	v.Ints = v.Ints[:0]
	v.Floats = v.Floats[:0]
	v.Bools = v.Bools[:0]
	switch t {
	case TypeInt:
		v.Ints = growZeroed(v.Ints, n)
	case TypeFloat:
		v.Floats = growZeroed(v.Floats, n)
	case TypeBool:
		if cap(v.Bools) < n {
			v.Bools = make([]bool, n)
		} else {
			v.Bools = v.Bools[:n]
			for i := range v.Bools {
				v.Bools[i] = false
			}
		}
	}
	v.clearNulls(n)
}

func growZeroed[T int64 | float64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// clearNulls sizes the bitmap for n slots and zeroes it.
func (v *Vector) clearNulls(n int) {
	words := (n + 63) / 64
	if cap(v.nulls) < words {
		v.nulls = make([]uint64, words)
	} else {
		v.nulls = v.nulls[:words]
		for i := range v.nulls {
			v.nulls[i] = 0
		}
	}
	v.hasNulls = false
}

// ensureNullWord grows the bitmap to cover slot i (sequential building).
func (v *Vector) ensureNullWord(i int) {
	for len(v.nulls)*64 <= i {
		v.nulls = append(v.nulls, 0)
	}
}

// SetNull marks slot i NULL.
func (v *Vector) SetNull(i int) {
	v.ensureNullWord(i)
	v.nulls[i>>6] |= 1 << (uint(i) & 63)
	v.hasNulls = true
}

// Null reports whether slot i is NULL.
func (v *Vector) Null(i int) bool {
	if !v.hasNulls {
		return false
	}
	w := i >> 6
	if w >= len(v.nulls) {
		return false
	}
	return v.nulls[w]&(1<<(uint(i)&63)) != 0
}

// OrNullsFrom ORs o's null bitmap into v's — the null-propagation step of
// arithmetic kernels, word-wise.
func (v *Vector) OrNullsFrom(o *Vector) {
	if !o.hasNulls {
		return
	}
	for len(v.nulls) < len(o.nulls) {
		v.nulls = append(v.nulls, 0)
	}
	for i, w := range o.nulls {
		v.nulls[i] |= w
	}
	v.hasNulls = true
}

// AppendInt appends a non-null BIGINT slot.
func (v *Vector) AppendInt(x int64) { v.Ints = append(v.Ints, x); v.n++ }

// AppendFloat appends a non-null DOUBLE slot.
func (v *Vector) AppendFloat(x float64) { v.Floats = append(v.Floats, x); v.n++ }

// AppendBool appends a non-null BOOLEAN slot.
func (v *Vector) AppendBool(x bool) { v.Bools = append(v.Bools, x); v.n++ }

// AppendBytes appends a non-null VARCHAR slot from raw bytes.
func (v *Vector) AppendBytes(b []byte) {
	v.bytes = append(v.bytes, b...)
	v.offs = append(v.offs, uint32(len(v.bytes)))
	v.n++
}

// AppendString appends a non-null VARCHAR slot.
func (v *Vector) AppendString(s string) {
	v.bytes = append(v.bytes, s...)
	v.offs = append(v.offs, uint32(len(v.bytes)))
	v.n++
}

// AppendNull appends a NULL slot of the vector's type.
func (v *Vector) AppendNull() {
	switch v.typ {
	case TypeInt:
		v.Ints = append(v.Ints, 0)
	case TypeFloat:
		v.Floats = append(v.Floats, 0)
	case TypeBool:
		v.Bools = append(v.Bools, false)
	case TypeString:
		v.offs = append(v.offs, uint32(len(v.bytes)))
	}
	v.SetNull(v.n)
	v.n++
}

// PadTo appends NULL slots until the vector's length reaches p — the gap
// filler for kernels writing a sparse selection into a sequential
// (string) vector. Padded slots are never selected, so their value is
// irrelevant; NULL keeps them inert.
func (v *Vector) PadTo(p int) {
	for v.n < p {
		v.AppendNull()
	}
}

// AppendFrom appends slot p of src, a vector of the same type — the typed
// cell copy boundary shims use to compact a selection without
// materializing Values.
func (v *Vector) AppendFrom(src *Vector, p int) {
	if src.Null(p) {
		v.AppendNull()
		return
	}
	switch v.typ {
	case TypeInt:
		v.AppendInt(src.Ints[p])
	case TypeFloat:
		v.AppendFloat(src.Floats[p])
	case TypeBool:
		v.AppendBool(src.Bools[p])
	case TypeString:
		v.AppendBytes(src.Bytes(p))
	}
}

// AppendGather appends src's slots at pos, in order, exactly as AppendFrom
// of each would: one type switch for the whole list, one tight loop per
// type, and for VARCHAR one slab grow sized from src's offsets. src is a
// vector of v's type.
func (v *Vector) AppendGather(src *Vector, pos []int32) {
	base := v.n
	v.n += len(pos)
	switch v.typ {
	case TypeInt:
		v.Ints = gatherInto(v.Ints, src.Ints, pos)
	case TypeFloat:
		v.Floats = gatherInto(v.Floats, src.Floats, pos)
	case TypeBool:
		v.Bools = gatherInto(v.Bools, src.Bools, pos)
	case TypeString:
		total := 0
		for _, p := range pos {
			total += int(src.offs[p+1] - src.offs[p])
		}
		v.bytes = slices.Grow(v.bytes, total)
		v.offs = slices.Grow(v.offs, len(pos))
		for i, p := range pos {
			if src.Null(int(p)) {
				v.SetNull(base + i)
			} else {
				v.bytes = append(v.bytes, src.bytes[src.offs[p]:src.offs[p+1]]...)
			}
			v.offs = append(v.offs, uint32(len(v.bytes)))
		}
		return
	}
	if src.hasNulls {
		for i, p := range pos {
			if src.Null(int(p)) {
				v.nullSlot(base + i)
			}
		}
	}
}

// gatherInto appends src[p] for every p in pos to dst, grown once.
func gatherInto[T int64 | float64 | bool](dst, src []T, pos []int32) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(pos))[:n+len(pos)]
	out := dst[n:]
	for i, p := range pos {
		out[i] = src[p]
	}
	return dst
}

// nullSlot makes fixed-width slot i NULL as AppendNull would have written
// it, its value zeroed.
func (v *Vector) nullSlot(i int) {
	switch v.typ {
	case TypeInt:
		v.Ints[i] = 0
	case TypeFloat:
		v.Floats[i] = 0
	case TypeBool:
		v.Bools[i] = false
	}
	v.SetNull(i)
}

// ChunkRef addresses one row of a list of chunks: the chunk's index and a
// physical position in it.
type ChunkRef struct{ Chunk, Pos int32 }

// AppendGatherRefs appends column col of the rows refs address in chunks,
// in order — the several-chunk AppendGather, exactly as AppendFrom of each
// would.
func (v *Vector) AppendGatherRefs(chunks []*ColBatch, col int, refs []ChunkRef) {
	base := v.n
	v.n += len(refs)
	switch v.typ {
	case TypeInt:
		v.Ints = slices.Grow(v.Ints, len(refs))
		for i, r := range refs {
			s := &chunks[r.Chunk].cols[col]
			v.Ints = append(v.Ints, s.Ints[r.Pos])
			if s.Null(int(r.Pos)) {
				v.nullSlot(base + i)
			}
		}
	case TypeFloat:
		v.Floats = slices.Grow(v.Floats, len(refs))
		for i, r := range refs {
			s := &chunks[r.Chunk].cols[col]
			v.Floats = append(v.Floats, s.Floats[r.Pos])
			if s.Null(int(r.Pos)) {
				v.nullSlot(base + i)
			}
		}
	case TypeBool:
		v.Bools = slices.Grow(v.Bools, len(refs))
		for i, r := range refs {
			s := &chunks[r.Chunk].cols[col]
			v.Bools = append(v.Bools, s.Bools[r.Pos])
			if s.Null(int(r.Pos)) {
				v.nullSlot(base + i)
			}
		}
	case TypeString:
		total := 0
		for _, r := range refs {
			s := &chunks[r.Chunk].cols[col]
			total += int(s.offs[r.Pos+1] - s.offs[r.Pos])
		}
		v.bytes = slices.Grow(v.bytes, total)
		v.offs = slices.Grow(v.offs, len(refs))
		for i, r := range refs {
			if s := &chunks[r.Chunk].cols[col]; s.Null(int(r.Pos)) {
				v.SetNull(base + i)
			} else {
				v.bytes = append(v.bytes, s.bytes[s.offs[r.Pos]:s.offs[r.Pos+1]]...)
			}
			v.offs = append(v.offs, uint32(len(v.bytes)))
		}
	}
}

// AppendValue appends one Value slot (the row→column transposition step).
func (v *Vector) AppendValue(val Value) {
	if val.Null {
		v.AppendNull()
		return
	}
	switch v.typ {
	case TypeInt:
		v.AppendInt(val.i)
	case TypeFloat:
		if val.Kind == TypeInt {
			v.AppendFloat(float64(val.i))
		} else {
			v.AppendFloat(val.f)
		}
	case TypeBool:
		v.AppendBool(val.b)
	case TypeString:
		v.AppendString(val.s)
	}
}

// truncate shortens a sequentially built vector to its first n slots.
func (v *Vector) truncate(n int) {
	if v.n <= n {
		return
	}
	switch v.typ {
	case TypeInt:
		v.Ints = v.Ints[:n]
	case TypeFloat:
		v.Floats = v.Floats[:n]
	case TypeBool:
		v.Bools = v.Bools[:n]
	case TypeString:
		v.bytes = v.bytes[:v.offs[n]]
		v.offs = v.offs[:n+1]
	}
	for i := n; v.hasNulls && i < v.n && i>>6 < len(v.nulls); i++ {
		v.nulls[i>>6] &^= 1 << (uint(i) & 63) // hasNulls may stay set: it is a hint
	}
	v.n = n
}

// PayloadLen returns the total payload bytes of VARCHAR slots [0, n): one
// offset read, where summing Bytes(i) would slice n times.
func (v *Vector) PayloadLen(n int) int { return int(v.offs[n]) }

// Bytes returns the raw payload of VARCHAR slot i (zero-copy; aliases the
// vector's slab, so it obeys the batch validity window).
func (v *Vector) Bytes(i int) []byte {
	return v.bytes[v.offs[i]:v.offs[i+1]]
}

// StringAt returns VARCHAR slot i as a string (allocates a copy).
func (v *Vector) StringAt(i int) string { return string(v.Bytes(i)) }

// ValueAt materializes slot i as a Value (VARCHAR slots allocate).
func (v *Vector) ValueAt(i int) Value {
	if v.Null(i) {
		return NullOf(v.typ)
	}
	switch v.typ {
	case TypeInt:
		return Int(v.Ints[i])
	case TypeFloat:
		return Float(v.Floats[i])
	case TypeBool:
		return Bool(v.Bools[i])
	default:
		return String_(v.StringAt(i))
	}
}

// ColBatch is a column-major batch: one Vector per column, a physical row
// count, and an optional selection vector listing the live physical row
// indices in ascending order (nil = every row is live).
type ColBatch struct {
	cols []Vector
	n    int
	sel  []int32
}

// NewColBatch returns a batch with one empty vector per column type.
func NewColBatch(types []Type) *ColBatch {
	b := &ColBatch{}
	b.Reset(types)
	return b
}

// Reset clears the batch to zero rows over the given column types, keeping
// vector capacity.
func (b *ColBatch) Reset(types []Type) {
	if cap(b.cols) < len(types) {
		b.cols = make([]Vector, len(types))
	} else {
		b.cols = b.cols[:len(types)]
	}
	for i := range b.cols {
		b.cols[i].Reset(types[i])
	}
	b.n = 0
	b.sel = nil
}

// NewColBatchCap returns an empty batch over types whose vectors are sized
// once for rows slots, and for payload[c] string bytes in each VARCHAR
// column c: filling it that far grows no backing array. The fixed-width
// columns of one type share a single allocation, each capped at its own
// stripe, so an append past rows reallocates that vector alone.
func NewColBatchCap(types []Type, rows int, payload []int) *ColBatch {
	var counts [TypeBool + 1]int
	for _, t := range types {
		counts[t]++
	}
	ints := make([]int64, rows*counts[TypeInt])
	floats := make([]float64, rows*counts[TypeFloat])
	bools := make([]bool, rows*counts[TypeBool])
	offs := make([]uint32, (rows+1)*counts[TypeString])
	b := &ColBatch{cols: make([]Vector, len(types))}
	for c, t := range types {
		v := &b.cols[c]
		v.typ = t
		switch t {
		case TypeInt:
			v.Ints, ints = ints[:0:rows], ints[rows:]
		case TypeFloat:
			v.Floats, floats = floats[:0:rows], floats[rows:]
		case TypeBool:
			v.Bools, bools = bools[:0:rows], bools[rows:]
		case TypeString:
			v.offs, offs = offs[:1:rows+1], offs[rows+1:]
			v.bytes = make([]byte, 0, payload[c])
		}
	}
	return b
}

// ViewOf makes b a read-only view of chunk's rows: b copies chunk's
// vector headers into a header array of its own, takes chunk's length and
// clears its selection. The backing arrays stay chunk's, so b must never
// be reset, appended to or pooled; its selection and headers are b's to
// set.
func (b *ColBatch) ViewOf(chunk *ColBatch) {
	if cap(b.cols) < len(chunk.cols) {
		b.cols = make([]Vector, len(chunk.cols))
	}
	b.cols = b.cols[:len(chunk.cols)]
	copy(b.cols, chunk.cols)
	b.n = chunk.n
	b.sel = nil
}

// NumCols returns the column count.
func (b *ColBatch) NumCols() int { return len(b.cols) }

// Col returns column i's vector (aliasing the batch).
func (b *ColBatch) Col(i int) *Vector { return &b.cols[i] }

// SetCol replaces column i's vector header (the backing arrays are shared
// with v — projection outputs assemble themselves this way, zero-copy).
func (b *ColBatch) SetCol(i int, v *Vector) { b.cols[i] = *v }

// FullLen returns the physical row count, ignoring the selection.
func (b *ColBatch) FullLen() int { return b.n }

// SetFullLen declares the physical row count (projection outputs whose
// vectors were written positionally).
func (b *ColBatch) SetFullLen(n int) { b.n = n }

// Len returns the live row count under the selection vector.
func (b *ColBatch) Len() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// Sel returns the selection vector (nil = all rows live). The slice
// aliases the batch.
func (b *ColBatch) Sel() []int32 { return b.sel }

// SetSel installs a selection vector of ascending physical indices; the
// batch takes no copy.
func (b *ColBatch) SetSel(sel []int32) { b.sel = sel }

// ClearSel removes the selection (all physical rows live again).
func (b *ColBatch) ClearSel() { b.sel = nil }

// identity lists 0..DefaultBatchSize-1, the positions of a batch of up to
// DefaultBatchSize rows with no selection; it is never written.
var identity = func() []int32 {
	pos := make([]int32, DefaultBatchSize)
	for i := range pos {
		pos[i] = int32(i)
	}
	return pos
}()

// LivePos returns the physical positions of the live rows, ascending: the
// selection, or 0..FullLen()-1. The list aliases the batch or is shared
// and read-only; only a batch of more than DefaultBatchSize rows with no
// selection allocates it.
func (b *ColBatch) LivePos() []int32 {
	switch {
	case b.sel != nil:
		return b.sel
	case b.n <= len(identity):
		return identity[:b.n]
	}
	pos := make([]int32, b.n)
	for i := range pos {
		pos[i] = int32(i)
	}
	return pos
}

// SelPos maps live-row ordinal si to its physical row index.
func (b *ColBatch) SelPos(si int) int {
	if b.sel != nil {
		return int(b.sel[si])
	}
	return si
}

// AppendRow transposes one row onto the batch's columns.
func (b *ColBatch) AppendRow(r Row) {
	for i := range b.cols {
		b.cols[i].AppendValue(r[i])
	}
	b.n++
}

// Rows materializes the live rows, appended to dst. The returned rows own
// their storage: values come from one flat backing array per call and
// string payloads from one immutable copy of each VARCHAR slab, so the
// rows survive the batch being recycled — this is the row view at the
// engine's edge (a result's Batches) and at the wire boundary.
func (b *ColBatch) Rows(dst []Row) []Row {
	k := b.Len()
	if k == 0 {
		return dst
	}
	w := len(b.cols)
	flat := make([]Value, k*w)
	// One immutable copy per VARCHAR column; substring headers into it are
	// zero-copy and own nothing mutable.
	slabs := make([]string, len(b.cols))
	for c := range b.cols {
		if b.cols[c].typ == TypeString {
			slabs[c] = string(b.cols[c].bytes)
		}
	}
	for si := 0; si < k; si++ {
		p := b.SelPos(si)
		r := flat[si*w : (si+1)*w : (si+1)*w]
		for c := range b.cols {
			col := &b.cols[c]
			if col.Null(p) {
				r[c] = NullOf(col.typ)
				continue
			}
			switch col.typ {
			case TypeInt:
				r[c] = Int(col.Ints[p])
			case TypeFloat:
				r[c] = Float(col.Floats[p])
			case TypeBool:
				r[c] = Bool(col.Bools[p])
			default:
				r[c] = String_(slabs[c][col.offs[p]:col.offs[p+1]])
			}
		}
		dst = append(dst, r)
	}
	return dst
}

// RowAt materializes one live row (by ordinal under the selection) into
// dst, growing it as needed. Like Rows, VARCHAR values are owning copies
// (one allocation per string cell): the row survives the batch being
// refilled, where a zero-copy view of the slab would dangle.
func (b *ColBatch) RowAt(si int, dst Row) Row {
	p := b.SelPos(si)
	dst = dst[:0]
	for c := range b.cols {
		col := &b.cols[c]
		if col.Null(p) {
			dst = append(dst, NullOf(col.typ))
			continue
		}
		switch col.typ {
		case TypeInt:
			dst = append(dst, Int(col.Ints[p]))
		case TypeFloat:
			dst = append(dst, Float(col.Floats[p]))
		case TypeBool:
			dst = append(dst, Bool(col.Bools[p]))
		default:
			dst = append(dst, String_(string(col.Bytes(p))))
		}
	}
	return dst
}

// FromRows resets the batch to the given types and transposes rows into
// it.
func (b *ColBatch) FromRows(types []Type, rows []Row) {
	b.Reset(types)
	for _, r := range rows {
		b.AppendRow(r)
	}
}

// colBatchPool recycles ColBatches (with their vectors' backing arrays)
// across operator instances; batches are handed out by GetColBatch and
// returned by their owner's Close.
var colBatchPool = sync.Pool{New: func() any { return &ColBatch{} }}

// GetColBatch returns a pooled batch reset to the given column types.
func GetColBatch(types []Type) *ColBatch {
	b := colBatchPool.Get().(*ColBatch)
	b.Reset(types)
	return b
}

// PutColBatch returns a batch obtained from GetColBatch to the pool. The
// caller must not touch it afterwards.
func PutColBatch(b *ColBatch) {
	if b != nil {
		colBatchPool.Put(b)
	}
}

// SchemaTypes extracts the column types of a schema — the shape argument
// to ColBatch construction.
func SchemaTypes(s Schema) []Type {
	ts := make([]Type, len(s.Cols))
	for i, c := range s.Cols {
		ts[i] = c.Type
	}
	return ts
}

// Conforms checks the batch shape against a schema (column count and
// types); the columnar twin of Row.Conforms for operator boundaries.
func (b *ColBatch) Conforms(s Schema) error {
	if len(b.cols) != len(s.Cols) {
		return fmt.Errorf("row: batch has %d columns, schema %q has %d", len(b.cols), s.String(), len(s.Cols))
	}
	for i := range b.cols {
		if b.cols[i].typ != s.Cols[i].Type {
			return fmt.Errorf("row: column %d is %s, schema wants %s", i, b.cols[i].typ, s.Cols[i].Type)
		}
	}
	return nil
}

// Package row is a fixture stub for the repo's pooled block buffers and
// columnar batches, matched by the analyzers by package, type, and
// function name (poolreturn: NewBlockBuffer/RecycleBlockBuffer;
// vecsafety: ColBatch/Vector and GetColBatch/PutColBatch).
package row

func NewBlockBuffer() []byte      { return nil }
func RecycleBlockBuffer(b []byte) {}

// Type mirrors the engine's column type enum.
type Type int

// Value mirrors the engine's dynamic cell value.
type Value struct{}

// Vector mirrors the engine's typed column vector: exported storage
// slices plus the append- and dense-mode mutators vecsafety tracks.
type Vector struct {
	Ints   []int64
	Floats []float64
	Bools  []bool
}

func (v *Vector) Len() int                 { return 0 }
func (v *Vector) Reset(t Type)             {}
func (v *Vector) ResetDense(t Type, n int) {}
func (v *Vector) AppendInt(x int64)        {}
func (v *Vector) AppendFloat(x float64)    {}
func (v *Vector) AppendBool(x bool)        {}
func (v *Vector) AppendBytes(b []byte)     {}
func (v *Vector) AppendString(s string)    {}
func (v *Vector) AppendNull()              {}
func (v *Vector) AppendValue(val Value)    {}
func (v *Vector) SetNull(i int)            {}
func (v *Vector) Null(i int) bool          { return false }
func (v *Vector) Bytes(i int) []byte       { return nil }
func (v *Vector) StringAt(i int) string    { return "" }
func (v *Vector) ValueAt(i int) Value      { return Value{} }

// ColBatch mirrors the engine's column-major batch: Len() is the logical
// (selection-applied) length, FullLen() the physical one.
type ColBatch struct{}

func (b *ColBatch) Col(i int) *Vector  { return nil }
func (b *ColBatch) Len() int           { return 0 }
func (b *ColBatch) FullLen() int       { return 0 }
func (b *ColBatch) Sel() []int32       { return nil }
func (b *ColBatch) SetSel(sel []int32) {}
func (b *ColBatch) ClearSel()          {}
func (b *ColBatch) SelPos(si int) int  { return si }

// GetColBatch and PutColBatch mirror the engine's batch pool.
func GetColBatch(types []Type) *ColBatch { return &ColBatch{} }
func PutColBatch(b *ColBatch)            {}

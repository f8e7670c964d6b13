package row

import (
	"encoding/binary"
	"math"
)

// Key codec: a canonical, prefix-free binary encoding of values and rows
// used by the engine's hash paths (join build/probe, GROUP BY, DISTINCT,
// repartitioning, and transform's distinct-value discovery).
//
// Unlike the binary row encoding (binary.go), which carries a length word
// per row, the key codec is built for hashing and equality: the
// caller owns the destination buffer and reuses it row after row, so the
// hot paths encode keys with zero per-row allocation.
//
// Encoding per value:
//
//	uint8 tag: 0..3 = NULL of Type(tag); 4=int, 5=float, 6=string, 7=bool
//	payload    int/float: 8 fixed bytes; bool: 1 byte;
//	           string: uvarint length + bytes
//
// Every value encoding is self-delimiting, which makes the concatenation
// prefix-free across rows of equal arity: if enc(r1) is a prefix of
// enc(r2) and len(r1) == len(r2), then r1 == r2 value-by-value. Two rows
// encode to the same bytes iff they are equal under Value.Equal within
// each kind — the grouping/DISTINCT notion of equality: NULLs of one type
// are equal, and DOUBLEs follow PostgreSQL, so -0 encodes as +0 and every
// NaN as one bit pattern. Only keys are canonicalized: stored, wire and
// text values keep their bits.

const (
	keyTagNullBase = 0 // 0..3: NULL of Type(tag)
	keyTagInt      = 4
	keyTagFloat    = 5
	keyTagString   = 6
	keyTagBool     = 7
)

// AppendKeyValue appends the canonical key encoding of v to dst and
// returns the grown buffer. It never allocates beyond growing dst.
func AppendKeyValue(dst []byte, v Value) []byte {
	if v.Null {
		return append(dst, byte(keyTagNullBase+int(v.Kind)))
	}
	switch v.Kind {
	case TypeInt:
		dst = append(dst, keyTagInt)
		return binary.LittleEndian.AppendUint64(dst, uint64(v.i))
	case TypeFloat:
		dst = append(dst, keyTagFloat)
		return binary.LittleEndian.AppendUint64(dst, keyFloatBits(v.f))
	case TypeString:
		dst = append(dst, keyTagString)
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		return append(dst, v.s...)
	default: // TypeBool
		dst = append(dst, keyTagBool)
		if v.b {
			return append(dst, 1)
		}
		return append(dst, 0)
	}
}

// keyNaN is the one bit pattern every NaN key encodes as: math.NaN()'s.
const keyNaN = 0x7ff8000000000001

// keyFloatBits is the key payload of a DOUBLE: its bits, with -0 as +0 and
// every NaN as keyNaN.
func keyFloatBits(f float64) uint64 {
	switch {
	case f == 0:
		return 0
	case f != f:
		return keyNaN
	}
	return math.Float64bits(f)
}

// AppendNormKeyValue is AppendKeyValue with numeric normalization folded
// in: a non-null BIGINT encodes as the DOUBLE of the same magnitude, so
// BIGINT 2 and DOUBLE 2.0 produce identical key bytes. Join keys use it
// to give cross-type numeric equi-joins the semantics of Value.Equal.
func AppendNormKeyValue(dst []byte, v Value) []byte {
	if !v.Null && v.Kind == TypeInt {
		dst = append(dst, keyTagFloat)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(float64(v.i)))
	}
	return AppendKeyValue(dst, v)
}

// AppendVectorKey appends the canonical key encoding of slot p of a
// column vector — byte-identical to AppendKeyValue(dst, v.ValueAt(p)), but
// without materializing the Value. The columnar GROUP BY/DISTINCT paths
// encode group keys cell-by-cell with it.
func AppendVectorKey(dst []byte, v *Vector, p int) []byte {
	if v.Null(p) {
		return append(dst, byte(keyTagNullBase+int(v.typ)))
	}
	switch v.typ {
	case TypeInt:
		dst = append(dst, keyTagInt)
		return binary.LittleEndian.AppendUint64(dst, uint64(v.Ints[p]))
	case TypeFloat:
		dst = append(dst, keyTagFloat)
		return binary.LittleEndian.AppendUint64(dst, keyFloatBits(v.Floats[p]))
	case TypeString:
		s := v.Bytes(p)
		dst = append(dst, keyTagString)
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		return append(dst, s...)
	default: // TypeBool
		dst = append(dst, keyTagBool)
		if v.Bools[p] {
			return append(dst, 1)
		}
		return append(dst, 0)
	}
}

// AppendNormVectorKey is AppendVectorKey with the join-key numeric
// normalization of AppendNormKeyValue: non-null BIGINT cells encode as the
// DOUBLE of the same magnitude.
func AppendNormVectorKey(dst []byte, v *Vector, p int) []byte {
	if v.typ == TypeInt && !v.Null(p) {
		dst = append(dst, keyTagFloat)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(float64(v.Ints[p])))
	}
	return AppendVectorKey(dst, v, p)
}

// AppendKey appends the canonical key encoding of every value of r.
func AppendKey(dst []byte, r Row) []byte {
	for _, v := range r {
		dst = AppendKeyValue(dst, v)
	}
	return dst
}

// FNV-1a constants, inlined so hashing a key is loop + two ops per byte
// with no hash.Hash allocation.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash64 returns the 64-bit FNV-1a hash of b.
func Hash64(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

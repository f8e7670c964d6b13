package row

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func randomColValue(rng *rand.Rand, t Type) Value {
	if rng.Intn(5) == 0 {
		return NullOf(t)
	}
	switch t {
	case TypeInt:
		return Int(rng.Int63n(1000) - 500)
	case TypeFloat:
		return Float(rng.NormFloat64())
	case TypeBool:
		return Bool(rng.Intn(2) == 1)
	default:
		n := rng.Intn(8)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return String_(string(b))
	}
}

func randomColRows(rng *rand.Rand, types []Type, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		r := make(Row, len(types))
		for c, t := range types {
			r[c] = randomColValue(rng, t)
		}
		rows[i] = r
	}
	return rows
}

func TestColBatchRowRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	types := []Type{TypeInt, TypeFloat, TypeString, TypeBool}
	rows := randomColRows(rng, types, 100)

	b := NewColBatch(types)
	for _, r := range rows {
		b.AppendRow(r)
	}
	if b.Len() != len(rows) || b.FullLen() != len(rows) {
		t.Fatalf("Len=%d FullLen=%d, want %d", b.Len(), b.FullLen(), len(rows))
	}
	got := b.Rows(nil)
	if len(got) != len(rows) {
		t.Fatalf("materialized %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		for c := range rows[i] {
			if !got[i][c].Equal(rows[i][c]) || got[i][c].Null != rows[i][c].Null {
				t.Fatalf("row %d col %d: got %v want %v", i, c, got[i][c], rows[i][c])
			}
		}
	}
}

func TestColBatchSelectionVector(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	types := []Type{TypeString, TypeInt}
	rows := randomColRows(rng, types, 50)
	b := NewColBatch(types)
	for _, r := range rows {
		b.AppendRow(r)
	}

	var sel []int32
	for i := 0; i < len(rows); i += 3 {
		sel = append(sel, int32(i))
	}
	b.SetSel(sel)
	if b.Len() != len(sel) {
		t.Fatalf("Len=%d want %d", b.Len(), len(sel))
	}
	got := b.Rows(nil)
	if len(got) != len(sel) {
		t.Fatalf("materialized %d, want %d", len(got), len(sel))
	}
	for si, p := range sel {
		for c := range types {
			if !got[si][c].Equal(rows[p][c]) {
				t.Fatalf("sel row %d (phys %d) col %d: got %v want %v", si, p, c, got[si][c], rows[p][c])
			}
		}
	}

	// Empty selection: zero live rows, nothing materialized.
	b.SetSel([]int32{})
	if b.Len() != 0 || len(b.Rows(nil)) != 0 {
		t.Fatalf("empty selection should yield no rows")
	}
	b.ClearSel()
	if b.Len() != len(rows) {
		t.Fatalf("ClearSel: Len=%d want %d", b.Len(), len(rows))
	}
}

// Rows must hand out owning copies: recycling the batch afterwards must not
// corrupt previously materialized rows (the boundary-shim contract).
func TestColBatchRowsSurviveRecycling(t *testing.T) {
	types := []Type{TypeString, TypeInt}
	b := NewColBatch(types)
	b.AppendRow(Row{String_("alpha"), Int(1)})
	b.AppendRow(Row{String_("beta"), Int(2)})
	got := b.Rows(nil)

	b.Reset(types)
	b.AppendRow(Row{String_("POISON-POISON"), Int(-987654321)})
	_ = b.Rows(nil)

	want := []Row{{String_("alpha"), Int(1)}, {String_("beta"), Int(2)}}
	for i := range want {
		for c := range want[i] {
			if !got[i][c].Equal(want[i][c]) {
				t.Fatalf("row %d col %d corrupted after recycle: %v", i, c, got[i][c])
			}
		}
	}
}

func TestVectorDenseWrites(t *testing.T) {
	var v Vector
	v.ResetDense(TypeInt, 5)
	v.Ints[0] = 10
	v.Ints[4] = -4
	v.SetNull(2)
	if v.Len() != 5 {
		t.Fatalf("Len=%d", v.Len())
	}
	want := []Value{Int(10), Int(0), NullOf(TypeInt), Int(0), Int(-4)}
	for i, w := range want {
		got := v.ValueAt(i)
		if got.Null != w.Null || (!w.Null && !got.Equal(w)) {
			t.Fatalf("slot %d: got %v want %v", i, got, w)
		}
	}

	// ResetDense must clear stale nulls and values.
	v.ResetDense(TypeInt, 5)
	if v.HasNulls() || v.Null(2) || v.Ints[0] != 0 {
		t.Fatalf("ResetDense left stale state: nulls=%v ints=%v", v.nulls, v.Ints)
	}
}

func TestVectorPadToAndStrings(t *testing.T) {
	var v Vector
	v.Reset(TypeString)
	v.AppendString("aa")
	v.PadTo(3)
	v.AppendBytes([]byte("bb"))
	if v.Len() != 4 {
		t.Fatalf("Len=%d", v.Len())
	}
	if !v.Null(1) || !v.Null(2) || v.Null(0) || v.Null(3) {
		t.Fatalf("pad slots should be null")
	}
	if string(v.Bytes(0)) != "aa" || string(v.Bytes(3)) != "bb" {
		t.Fatalf("got %q %q", v.Bytes(0), v.Bytes(3))
	}
}

func TestVectorOrNullsFrom(t *testing.T) {
	var a, b Vector
	a.ResetDense(TypeFloat, 130)
	b.ResetDense(TypeFloat, 130)
	a.SetNull(0)
	b.SetNull(129)
	a.OrNullsFrom(&b)
	if !a.Null(0) || !a.Null(129) || a.Null(64) {
		t.Fatalf("OrNullsFrom wrong: %v", a.nulls)
	}
	if b.Null(0) {
		t.Fatalf("source bitmap mutated")
	}
}

// Vector-cell key encoding must be byte-identical to the Value-based codec:
// the columnar hash paths rely on it to probe tables built row-wise.
func TestVectorKeyByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	types := []Type{TypeInt, TypeFloat, TypeString, TypeBool}
	rows := randomColRows(rng, types, 200)
	b := NewColBatch(types)
	for _, r := range rows {
		b.AppendRow(r)
	}
	for p, r := range rows {
		for c := range types {
			want := AppendKeyValue(nil, r[c])
			got := AppendVectorKey(nil, b.Col(c), p)
			if !bytes.Equal(got, want) {
				t.Fatalf("row %d col %d: key bytes %x != %x", p, c, got, want)
			}
			wantN := AppendNormKeyValue(nil, r[c])
			gotN := AppendNormVectorKey(nil, b.Col(c), p)
			if !bytes.Equal(gotN, wantN) {
				t.Fatalf("row %d col %d: norm key bytes %x != %x", p, c, gotN, wantN)
			}
		}
	}
}

// Staging a batch's rows one at a time, or in uneven runs, through
// AppendRows must produce frames (and a RawBytes price) byte-identical to
// AppendBatch of the same rows, so how the sender cuts a position list
// cannot change what goes on the wire.
func TestBlockEncoderAppendRowsByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	types := []Type{TypeInt, TypeFloat, TypeString, TypeBool}
	rows := randomColRows(rng, types, 64)
	b := NewColBatch(types)
	for _, r := range rows {
		b.AppendRow(r)
	}
	pos := b.LivePos()
	prices := PriceRows(nil, b, pos)

	var batchEnc BlockEncoder
	batchEnc.EnableColumnar(types, true)
	batchEnc.AppendBatch(b)
	want := batchEnc.Finish()
	defer RecycleBlockBuffer(want)
	wantRaw := 0
	for _, p := range prices {
		wantRaw += p
	}
	for _, run := range []int{1, 2, 3, 7, 64} {
		var rowEnc BlockEncoder
		rowEnc.EnableColumnar(types, true)
		for off := 0; off < len(pos); {
			end := min(off+run, len(pos))
			if n := rowEnc.AppendRows(b, pos[off:end], prices[off:end], math.MaxInt, math.MaxInt); n != end-off {
				t.Fatalf("run %d: staged %d of %d rows with no budget", run, n, end-off)
			}
			off = end
		}
		if raw := rowEnc.RawBytes(); raw != rowBlockHeaderLen+wantRaw {
			t.Fatalf("run %d: RawBytes %d, header plus prices %d", run, raw, rowBlockHeaderLen+wantRaw)
		}
		got := rowEnc.Finish()
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d: frame staged in runs differs from the frame staged by batch: %d vs %d bytes", run, len(got), len(want))
		}
		RecycleBlockBuffer(got)
	}
}

func TestBlockTargetRowsIsDefaultBatchSize(t *testing.T) {
	if BlockTargetRows != DefaultBatchSize {
		t.Fatalf("BlockTargetRows=%d, DefaultBatchSize=%d", BlockTargetRows, DefaultBatchSize)
	}
}

func TestSchemaTypesAndConforms(t *testing.T) {
	s, err := NewSchema(Column{Name: "a", Type: TypeInt}, Column{Name: "b", Type: TypeString})
	if err != nil {
		t.Fatal(err)
	}
	ts := SchemaTypes(s)
	if !reflect.DeepEqual(ts, []Type{TypeInt, TypeString}) {
		t.Fatalf("SchemaTypes=%v", ts)
	}
	b := NewColBatch(ts)
	if err := b.Conforms(s); err != nil {
		t.Fatalf("Conforms: %v", err)
	}
	bad := NewColBatch([]Type{TypeInt})
	if err := bad.Conforms(s); err == nil {
		t.Fatalf("Conforms should reject arity mismatch")
	}
}

func TestColBatchPool(t *testing.T) {
	types := []Type{TypeInt}
	b := GetColBatch(types)
	b.AppendRow(Row{Int(7)})
	PutColBatch(b)
	b2 := GetColBatch(types)
	if b2.Len() != 0 {
		t.Fatalf("pooled batch not reset: Len=%d", b2.Len())
	}
	PutColBatch(b2)
}

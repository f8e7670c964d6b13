package row

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := make(Row, rng.Intn(6))
		for i := range r {
			r[i] = genValue(rng)
		}
		enc := AppendBinary(nil, r)
		back, err := DecodeBinary(enc[4:])
		if err != nil {
			return false
		}
		if len(back) != len(r) {
			return false
		}
		for i := range r {
			a, b := r[i], back[i]
			if a.Kind == TypeFloat && !a.Null && math.IsNaN(a.AsFloat()) {
				if b.Null || !math.IsNaN(b.AsFloat()) {
					return false
				}
				continue
			}
			if !a.Equal(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestReaderRejectsOversizedFrame(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], blockFlag|uint32(MaxBlockSize+1))
	rd := NewReader(bytes.NewReader(hdr[:]))
	if _, err := rd.Read(); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestReaderTruncatedBody(t *testing.T) {
	enc := encodeBlock(blockRows(3, 0))
	rd := NewReader(bytes.NewReader(enc[:len(enc)-3]))
	if _, err := rd.Read(); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestDecodeBinaryCorruptTags(t *testing.T) {
	for _, body := range [][]byte{
		{99},                     // unknown tag
		{tagIntV, 1, 2},          // short int
		{tagFloatV, 1},           // short float
		{tagStringV, 5, 0, 0, 0}, // string length without payload
		{tagStringV, 0, 0},       // short string length
		{tagBoolV},               // missing bool payload
	} {
		if _, err := DecodeBinary(body); err == nil {
			t.Errorf("DecodeBinary(%v) should fail", body)
		}
	}
}

func TestSchemaHeaderRoundTrip(t *testing.T) {
	s := MustSchema(Column{"age", TypeInt}, Column{"gender", TypeString})
	var buf bytes.Buffer
	if err := WriteSchema(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSchema(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(s) {
		t.Errorf("schema header round trip: got %v want %v", back, s)
	}
}

func TestSchemaThenRowsOnOneStream(t *testing.T) {
	s := MustSchema(Column{"id", TypeInt}, Column{"v", TypeFloat})
	var buf bytes.Buffer
	if err := WriteSchema(&buf, s); err != nil {
		t.Fatal(err)
	}
	var enc BlockEncoder
	enc.EnableColumnar(SchemaTypes(s), true)
	for i := 0; i < 100; i++ {
		enc.Append(Row{Int(int64(i)), Float(float64(i) / 2)})
		if enc.Rows() == 32 {
			buf.Write(enc.Finish())
		}
	}
	buf.Write(enc.Finish())

	got, err := ReadSchema(&buf)
	if err != nil || !got.Equal(s) {
		t.Fatalf("schema: %v %v", got, err)
	}
	rd := NewReader(&buf)
	n := 0
	for {
		r, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if r[0].AsInt() != int64(n) {
			t.Fatalf("row %d out of order: %v", n, r)
		}
		n++
	}
	if n != 100 {
		t.Errorf("read %d rows, want 100", n)
	}
}

func BenchmarkAppendBinary(b *testing.B) {
	r := Row{Int(12345), Float(98.6), String_("some-categorical-value"), Bool(true)}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendBinary(buf[:0], r)
	}
}

func BenchmarkDecodeBinary(b *testing.B) {
	enc := AppendBinary(nil, Row{Int(12345), Float(98.6), String_("some-categorical-value"), Bool(true)})
	body := enc[4:]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBinary(body); err != nil {
			b.Fatal(err)
		}
	}
}

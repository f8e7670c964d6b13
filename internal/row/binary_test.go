package row

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"
)

// Value tags of the binary row encoding (binary.go).
const (
	tagNullBase = 0
	tagIntV     = 4
	tagFloatV   = 5
	tagStringV  = 6
	tagBoolV    = 7
)

// AppendBinary appends the binary encoding of the row (including the
// length prefix) to dst. Nothing in the product writes it: it is
// the oracle BlockEncoder.RawBytes is held to, and it builds the retired
// v1/v2 frames the rejection tests feed the reader.
func AppendBinary(dst []byte, r Row) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	for _, v := range r {
		if v.Null {
			dst = append(dst, byte(tagNullBase+int(v.Kind)))
			continue
		}
		switch v.Kind {
		case TypeInt:
			dst = append(dst, tagIntV)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.i))
		case TypeFloat:
			dst = append(dst, tagFloatV)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.f))
		case TypeString:
			dst = append(dst, tagStringV)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.s)))
			dst = append(dst, v.s...)
		case TypeBool:
			dst = append(dst, tagBoolV)
			if v.b {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

func TestReaderRejectsOversizedFrame(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], blockFlag|uint32(MaxBlockSize+1))
	rd := NewReader(bytes.NewReader(hdr[:]))
	if _, err := rd.ReadColBatch(NewColBatch(nil), blockRowTypes); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestReaderTruncatedBody(t *testing.T) {
	enc := encodeBlock(blockRows(3, 0))
	rd := NewReader(bytes.NewReader(enc[:len(enc)-3]))
	if _, err := rd.ReadColBatch(NewColBatch(nil), blockRowTypes); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestFramesOnOneStream(t *testing.T) {
	s := MustSchema(Column{"id", TypeInt}, Column{"v", TypeFloat})
	var buf bytes.Buffer
	types := SchemaTypes(s)
	var enc BlockEncoder
	enc.EnableColumnar(types, true)
	staged := NewColBatch(types)
	for i := 0; i < 100; i++ {
		staged.Reset(types)
		staged.AppendRow(Row{Int(int64(i)), Float(float64(i) / 2)})
		enc.AppendBatch(staged)
		if enc.Rows() == 32 {
			buf.Write(enc.Finish())
		}
	}
	buf.Write(enc.Finish())

	rd := NewReader(&buf)
	dst := NewColBatch(nil)
	n := 0
	for {
		rows, err := rd.ReadColBatch(dst, types)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range dst.Rows(nil) {
			if r[0].AsInt() != int64(n) {
				t.Fatalf("row %d out of order: %v", n, r)
			}
			n++
		}
		if rows != dst.Len() {
			t.Fatalf("ReadColBatch reported %d rows, batch holds %d", rows, dst.Len())
		}
	}
	if n != 100 {
		t.Errorf("read %d rows, want 100", n)
	}
}

package row

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
)

var colTestTypes = []Type{TypeInt, TypeFloat, TypeString, TypeBool}

// genColBatch builds a pseudo-random batch: nullFrac of slots NULL, string
// values drawn from a pool of ndv distinct values, and (optionally) a
// selection vector keeping roughly half the rows.
func genColBatch(rnd *rand.Rand, n int, nullFrac float64, ndv int, withSel bool) *ColBatch {
	b := NewColBatch(colTestTypes)
	for i := 0; i < n; i++ {
		r := make(Row, len(colTestTypes))
		for c, typ := range colTestTypes {
			if rnd.Float64() < nullFrac {
				r[c] = NullOf(typ)
				continue
			}
			switch typ {
			case TypeInt:
				r[c] = Int(rnd.Int63n(1<<20) - 1<<19)
			case TypeFloat:
				r[c] = Float(rnd.NormFloat64() * 100)
			case TypeString:
				r[c] = String_(strings.Repeat("v", 1+rnd.Intn(3)) + string(rune('a'+rnd.Intn(ndv))))
			case TypeBool:
				r[c] = Bool(rnd.Intn(2) == 0)
			}
		}
		b.AppendRow(r)
	}
	if withSel {
		var sel []int32
		for i := 0; i < n; i++ {
			if rnd.Intn(2) == 0 {
				sel = append(sel, int32(i))
			}
		}
		b.SetSel(sel)
	}
	return b
}

// TestColBlockRoundTripMatchesV2 is the value-identity property: for
// NULL-heavy and selection-heavy batches, encode→decode through the
// columnar frame yields exactly the source batch's live rows — compressed
// and uncompressed. (The name records its origin: the reference used to be
// a decode of the v2 row-block encoding of the same rows.)
func TestColBlockRoundTripMatchesV2(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rnd.Intn(200)
		nullFrac := []float64{0, 0.2, 0.9}[trial%3]
		ndv := []int{2, 26}[trial%2]
		withSel := trial%4 < 2
		compress := trial%2 == 0
		b := genColBatch(rnd, n, nullFrac, ndv, withSel)
		want := b.Rows(nil)

		frame := AppendColBlock(nil, b, compress)
		if b.Len() == 0 {
			if frame != nil {
				t.Fatalf("trial %d: empty batch encoded %d bytes", trial, len(frame))
			}
			continue
		}
		got := NewColBatch(nil)
		rows, err := DecodeColBlock(frame, got)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if rows != len(want) {
			t.Fatalf("trial %d: decoded rows = %d, source = %d", trial, rows, len(want))
		}
		gotRows := got.Rows(nil)
		for i := range want {
			if !gotRows[i].Equal(want[i]) {
				t.Fatalf("trial %d row %d (compress=%v sel=%v): decoded %v, source %v",
					trial, i, compress, withSel, gotRows[i], want[i])
			}
		}
	}
}

// TestColBlockEncodingSelection pins the per-column encoding choices: a
// clustered BIGINT column goes frame-of-reference, a low-NDV VARCHAR
// column goes dictionary, and both beat the binary row encoding by a wide
// margin; high-entropy columns fall back to raw and still round-trip.
func TestColBlockEncodingSelection(t *testing.T) {
	b := NewColBatch([]Type{TypeInt, TypeString})
	for i := 0; i < 1024; i++ {
		b.AppendRow(Row{Int(int64(5_000_000 + i)), String_([]string{"alpha", "beta", "gamma"}[i%3])})
	}
	var enc BlockEncoder
	enc.EnableColumnar([]Type{TypeInt, TypeString}, true)
	enc.AppendBatch(b)
	rowEncoded := enc.RawBytes()
	packed := AppendColBlock(nil, b, true)
	if len(packed)*2 > rowEncoded {
		t.Errorf("compressible block: frame = %d bytes vs row-encoded = %d; want at least 2x smaller", len(packed), rowEncoded)
	}
	raw := AppendColBlock(nil, b, false)
	if len(raw) <= len(packed) {
		t.Errorf("uncompressed frame = %d bytes, compressed = %d; the flag did nothing", len(raw), len(packed))
	}
	for _, frame := range [][]byte{packed, raw} {
		got := NewColBatch(nil)
		if _, err := DecodeColBlock(frame, got); err != nil {
			t.Fatal(err)
		}
		if got.Col(0).Ints[17] != 5_000_017 || got.Col(1).StringAt(17) != "gamma" {
			t.Fatalf("round-trip lost values: %d %q", got.Col(0).Ints[17], got.Col(1).StringAt(17))
		}
	}

	// A full-range random int column and unique strings must fall back raw.
	rnd := rand.New(rand.NewSource(7))
	hi := NewColBatch([]Type{TypeInt, TypeString})
	for i := 0; i < 512; i++ {
		hi.AppendRow(Row{Int(rnd.Int63() - rnd.Int63()), String_(strings.Repeat("u", i%7) + string(rune(i)))})
	}
	frame := AppendColBlock(nil, hi, true)
	got := NewColBatch(nil)
	if _, err := DecodeColBlock(frame, got); err != nil {
		t.Fatal(err)
	}
	want := hi.Rows(nil)
	for i, r := range got.Rows(nil) {
		if !r.Equal(want[i]) {
			t.Fatalf("high-entropy row %d = %v, want %v", i, r, want[i])
		}
	}
}

// TestColBlockIntFOREdges drives the frame-of-reference encoder at the
// int64 edges, where base + delta must wrap back exactly: each BIGINT
// column decodes to its source values and re-encodes to the same bytes.
// The first column byte after the 16-byte frame header is the column
// type, the next its encoding.
func TestColBlockIntFOREdges(t *testing.T) {
	const maxI, minI = int64(math.MaxInt64), int64(math.MinInt64)
	nearMax, nearMin := make([]Value, 1024), make([]Value, 1024)
	for i := range nearMax {
		nearMax[i] = Int(maxI - int64(i*7%1024))
		nearMin[i] = Int(minI + int64(i*7%1024))
	}
	cases := []struct {
		name string
		vals []Value
		enc  byte
	}{
		{"near MaxInt64", nearMax, colEncIntFOR},
		{"near MinInt64", nearMin, colEncIntFOR},
		// base MinInt64, so MaxInt64's delta is 2^64-1: 10 uvarint bytes,
		// still under three raw slots.
		{"MinInt64, MaxInt64, NULL", []Value{Int(minI), Int(maxI), NullOf(TypeInt)}, colEncIntFOR},
	}
	for _, c := range cases {
		b := NewColBatch([]Type{TypeInt})
		for _, v := range c.vals {
			b.AppendRow(Row{v})
		}
		frame := AppendColBlock(nil, b, true)
		if got := frame[17]; got != c.enc {
			t.Errorf("%s: encoding %d, want %d", c.name, got, c.enc)
		}
		got := NewColBatch(nil)
		if n, err := DecodeColBlock(frame, got); err != nil || n != len(c.vals) {
			t.Fatalf("%s: decoded %d rows of %d: %v", c.name, n, len(c.vals), err)
		}
		for i, r := range got.Rows(nil) {
			if r[0].Null != c.vals[i].Null || (!r[0].Null && r[0].AsInt() != c.vals[i].AsInt()) {
				t.Fatalf("%s: row %d = %v, want %v", c.name, i, r[0], c.vals[i])
			}
		}
		if again := AppendColBlock(nil, got, true); !bytes.Equal(again, frame) {
			t.Errorf("%s: re-encoding the decoded batch changed the frame", c.name)
		}
	}
}

// TestColBlockDoubleEdges drives DOUBLE columns through the frame at
// the float edges — two NaN payloads, ±0, ±Inf, the smallest subnormal,
// MaxFloat64 and NULL — with compression off and on: every value decodes
// to its source bits and the decoded batch re-encodes to the same frame.
// Comparisons and keys treat -0 as 0 and every NaN as one value; the wire
// must not, it carries the bits.
func TestColBlockDoubleEdges(t *testing.T) {
	vals := []Value{
		Float(math.Float64frombits(0x7ff8000000000001)),
		Float(math.Float64frombits(0xfff8000000000123)),
		Float(0), Float(math.Copysign(0, -1)),
		Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(math.SmallestNonzeroFloat64), Float(-math.SmallestNonzeroFloat64),
		Float(math.MaxFloat64), Float(-math.MaxFloat64),
		NullOf(TypeFloat),
	}
	for _, compress := range []bool{false, true} {
		b := NewColBatch([]Type{TypeFloat})
		for _, v := range vals {
			b.AppendRow(Row{v})
		}
		frame := AppendColBlock(nil, b, compress)
		got := NewColBatch(nil)
		if n, err := DecodeColBlock(frame, got); err != nil || n != len(vals) {
			t.Fatalf("compress=%v: decoded %d rows of %d: %v", compress, n, len(vals), err)
		}
		for i, r := range got.Rows(nil) {
			w := vals[i]
			if r[0].Null != w.Null || (!w.Null && math.Float64bits(r[0].AsFloat()) != math.Float64bits(w.AsFloat())) {
				t.Errorf("compress=%v: row %d = %v (%#x), want %v (%#x)", compress, i,
					r[0], math.Float64bits(r[0].AsFloat()), w, math.Float64bits(w.AsFloat()))
			}
		}
		if again := AppendColBlock(nil, got, compress); !bytes.Equal(again, frame) {
			t.Errorf("compress=%v: re-encoding the decoded batch changed the frame", compress)
		}
	}
}

// TestBlockEncoderColumnarMode drives the encoder through both staging
// entry points — EnableColumnar, then a mix of AppendBatch and AppendRows
// of one row — and checks Finish emits a decodable frame of the current
// version, the encoder detaches, and RawBytes tracks the row-encoded size.
func TestBlockEncoderColumnarMode(t *testing.T) {
	types := []Type{TypeInt, TypeFloat, TypeString, TypeBool}
	rnd := rand.New(rand.NewSource(3))
	b := genColBatch(rnd, 100, 0.3, 2, true)

	var enc BlockEncoder
	enc.EnableColumnar(types, true)
	enc.AppendBatch(b)
	first := b.LivePos()[:1]
	if n := enc.AppendRows(b, first, PriceRows(nil, b, first), math.MaxInt, math.MaxInt); n != 1 {
		t.Fatalf("AppendRows staged %d rows, want 1", n)
	}
	extra := Row{Int(7), NullOf(TypeFloat), String_("vx"), Bool(true)}
	extraBatch := NewColBatch(types)
	extraBatch.AppendRow(extra)
	enc.AppendBatch(extraBatch)
	wantRows := b.Len() + 2
	if enc.Rows() != wantRows {
		t.Fatalf("staged rows = %d, want %d", enc.Rows(), wantRows)
	}
	// RawBytes is the size of the same rows as one block of AppendBinary
	// bodies.
	wantRaw := rowBlockHeaderLen
	for _, r := range append(b.Rows(nil), b.RowAt(0, nil), extra) {
		wantRaw += len(AppendBinary(nil, r))
	}
	if raw := enc.RawBytes(); raw != wantRaw {
		t.Fatalf("RawBytes = %d, row encoding of the staged rows = %d", raw, wantRaw)
	}
	frame := enc.Finish()
	if frame == nil || frame[4] != WireProtoCol {
		t.Fatal("Finish did not produce a frame of the current version")
	}
	if enc.Rows() != 0 || enc.RawBytes() != 0 {
		t.Fatal("encoder not detached after Finish")
	}
	got := NewColBatch(nil)
	n, err := DecodeColBlock(frame, got)
	if err != nil {
		t.Fatal(err)
	}
	if n != wantRows {
		t.Fatalf("decoded %d rows, want %d", n, wantRows)
	}
	want := b.Rows(nil)
	want = append(want, b.RowAt(0, nil), extra)
	for i, r := range got.Rows(nil) {
		if !r.Equal(want[i]) {
			t.Fatalf("row %d = %v, want %v", i, r, want[i])
		}
	}

	// The encoder must be reusable for the next block.
	enc.AppendBatch(extraBatch)
	second := enc.Finish()
	if second == nil || second[4] != WireProtoCol {
		t.Fatal("second Finish broken")
	}
	if _, err := DecodeColBlock(second, got); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeColBlockRejectsCorrupt feeds the decoder systematically
// damaged frames: every one must error, never panic.
func TestDecodeColBlockRejectsCorrupt(t *testing.T) {
	cb := NewColBatch(colTestTypes)
	rnd := rand.New(rand.NewSource(11))
	for _, r := range genColBatch(rnd, 64, 0.3, 3, false).Rows(nil) {
		cb.AppendRow(r)
	}
	frame := AppendColBlock(nil, cb, true)
	dst := NewColBatch(nil)
	mut := func(f func(c []byte) []byte) []byte {
		return f(append([]byte(nil), frame...))
	}
	cases := map[string][]byte{
		"truncated-tail":  frame[:len(frame)/2],
		"short-header":    frame[:4+colTailLen-2],
		"bad-version":     mut(func(c []byte) []byte { c[4] = 9; return c }),
		"flipped-payload": mut(func(c []byte) []byte { c[len(c)-3] ^= 0xff; return c }),
		"flipped-header":  mut(func(c []byte) []byte { c[4+colTailLen] ^= 0xff; return c }),
		"lying-rowcount":  mut(func(c []byte) []byte { c[6]++; return c }),
		"trailing-bytes":  mut(func(c []byte) []byte { return append(c, 0xaa) }),
		"huge-rowcount":   mut(func(c []byte) []byte { c[9] = 0x7f; return c }),
	}
	for name, c := range cases {
		if name == "truncated-tail" || name == "trailing-bytes" {
			// The length word no longer matches; fix it up so corruption
			// reaches the tail parser, as a lying sender would arrange.
			if len(c) >= 4 {
				w := uint32(len(c) - 4)
				c[0], c[1], c[2], c[3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)|0x80
			}
		}
		if _, err := DecodeColBlock(c, dst); err == nil {
			t.Errorf("%s: corrupt frame decoded cleanly", name)
		}
	}
}

// flippedPayloadFrame is a well-formed frame, length word intact, with one
// bit flipped in its last column's raw DOUBLE payload: the frame still
// parses, so only the checksum can tell.
func flippedPayloadFrame() []byte {
	types := []Type{TypeInt, TypeFloat}
	var rows []Row
	for i := 0; i < 8; i++ {
		rows = append(rows, Row{Int(int64(i)), Float(float64(i) / 3)})
	}
	frame := AppendColBlock(nil, colBatchOf(types, rows), true)
	frame[len(frame)-1] ^= 1
	return frame
}

// TestFrameChecksumIsCRC32C pins the frame checksum to CRC-32C by its
// standard check value.
func TestFrameChecksumIsCRC32C(t *testing.T) {
	if got := frameChecksum([]byte("123456789")); got != 0xE3069283 {
		t.Fatalf("frameChecksum(\"123456789\") = %#08x, want 0xe3069283 (CRC-32C)", got)
	}
}

// checksumSink keeps BenchmarkFrameChecksum's call from being optimised
// away.
var checksumSink uint32

// BenchmarkFrameChecksum checksums one default-budget frame body.
func BenchmarkFrameChecksum(b *testing.B) {
	buf := make([]byte, BlockTargetBytes)
	rand.New(rand.NewSource(53)).Read(buf)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checksumSink = frameChecksum(buf)
	}
}

// TestFlippedPayloadBitFailsChecksumFirst: the FuzzBlockFrame seed with
// one flipped payload bit is refused by its checksum, before the
// destination batch's vectors are touched.
func TestFlippedPayloadBitFailsChecksumFirst(t *testing.T) {
	dst := colBatchOf([]Type{TypeInt}, []Row{{Int(1)}, {Int(2)}})
	_, err := DecodeColBlock(flippedPayloadFrame(), dst)
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("err = %v, want a checksum mismatch", err)
	}
	if dst.NumCols() != 1 || dst.Len() != 2 || dst.Col(0).Len() != 2 || dst.Col(0).Ints[1] != 2 {
		t.Fatalf("a frame refused by its checksum resized the destination: %d cols, %d rows", dst.NumCols(), dst.Len())
	}
	// With its checksum recomputed the same bytes decode cleanly: nothing
	// but the checksum refused them.
	frame := flippedPayloadFrame()
	binary.LittleEndian.PutUint32(frame[4+6:], frameChecksum(frame[4+10:]))
	if n, err := DecodeColBlock(frame, dst); err != nil || n != 8 {
		t.Fatalf("re-checksummed frame: %d rows, err %v", n, err)
	}
}

// FuzzBlockFrame hammers the frame decoders — the columnar parser and the
// stream reader — with arbitrary bytes: they must return errors on
// garbage, never panic, and never allocate beyond the frame's own size
// (the per-encoding size checks run before any vector is grown). Seeds
// cover valid frames, frames of the retired v1/v2 formats (which must be
// rejected, not decoded), the empty block frame that once panicked
// nextFrame, and a valid frame with one flipped payload bit, which reaches
// the checksum-mismatch branch, so mutations explore the interesting
// neighborhoods.
func FuzzBlockFrame(f *testing.F) {
	f.Add(v2BlockFrame(blockRows(8, 0)))
	cb := NewColBatch(blockRowTypes)
	for _, r := range blockRows(8, 0) {
		cb.AppendRow(r)
	}
	valid := AppendColBlock(nil, cb, true)
	f.Add(valid)
	f.Add(AppendColBlock(nil, cb, false))
	f.Add(valid[:len(valid)-3])
	f.Add(AppendBinary(nil, blockRows(1, 0)[0]))
	f.Add([]byte{0x00, 0x00, 0x00, 0x80})
	f.Add(flippedPayloadFrame())
	f.Fuzz(func(t *testing.T, data []byte) {
		dst := NewColBatch(nil)
		_, _ = DecodeColBlock(data, dst)
		if len(data) >= 4 {
			// Bypass the length-word check to reach the tail parser with
			// arbitrary bytes, as a frame already staged off the wire would.
			_, _ = decodeColTail(data[4:], dst)
		}
		rd := NewReader(bytes.NewReader(data))
		for {
			if _, err := rd.ReadColBatch(dst, blockRowTypes); err != nil {
				break
			}
		}
	})
}

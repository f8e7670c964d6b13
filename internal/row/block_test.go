package row

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// blockRowTypes is the shape of the rows blockRows builds.
var blockRowTypes = []Type{TypeInt, TypeFloat, TypeString, TypeBool, TypeString}

func blockRows(n, base int) []Row {
	out := make([]Row, n)
	for i := range out {
		out[i] = Row{
			Int(int64(base + i)),
			Float(float64(i) / 3),
			String_("v" + string(rune('a'+i%26))),
			Bool(i%2 == 0),
			NullOf(TypeString),
		}
	}
	return out
}

// encodeBlock packs blockRows-shaped rows into one wire frame through the
// sender's encoder.
func encodeBlock(rows []Row) []byte {
	var enc BlockEncoder
	enc.EnableColumnar(blockRowTypes, true)
	enc.AppendBatch(colBatchOf(blockRowTypes, rows))
	return enc.Finish()
}

// colBatchOf stages rows in a column batch of the given types.
func colBatchOf(types []Type, rows []Row) *ColBatch {
	b := NewColBatch(types)
	for _, r := range rows {
		b.AppendRow(r)
	}
	return b
}

// v2BlockFrame builds a well-formed frame of the retired v2 format — a
// block header with version byte 2 over length-prefixed row bodies — from
// nothing but AppendBinary, so the rejection tests do not depend on an
// encoder the tree no longer has. (A retired v1 frame is AppendBinary's
// output as is.)
func v2BlockFrame(rows []Row) []byte {
	b := make([]byte, 10)
	for _, r := range rows {
		b = AppendBinary(b, r)
	}
	binary.LittleEndian.PutUint32(b, blockFlag|uint32(len(b)-4))
	b[4] = 2
	binary.LittleEndian.PutUint32(b[6:], uint32(len(rows)))
	return b
}

func TestBlockEncodeDecodeRoundTrip(t *testing.T) {
	rows := blockRows(37, 100)
	var enc BlockEncoder
	enc.EnableColumnar(blockRowTypes, true)
	enc.AppendBatch(colBatchOf(blockRowTypes, rows))
	if enc.Rows() != len(rows) {
		t.Fatalf("encoder rows = %d", enc.Rows())
	}
	frame := enc.Finish()
	if frame == nil || frame[4] != WireProtoCol {
		t.Fatal("Finish did not produce a block frame")
	}
	if enc.Rows() != 0 || enc.RawBytes() != 0 {
		t.Fatal("encoder not detached after Finish")
	}
	dst := NewColBatch(nil)
	n, err := BlockDecoder{}.DecodeBatch(frame, dst, blockRowTypes)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(rows) {
		t.Fatalf("decoded rows = %d", n)
	}
	for i, got := range dst.Rows(nil) {
		if !got.Equal(rows[i]) {
			t.Fatalf("row %d = %v, want %v", i, got, rows[i])
		}
	}
	if _, err := (BlockDecoder{}).DecodeBatch(frame, dst, blockRowTypes[:4]); err == nil {
		t.Fatal("DecodeBatch accepted a frame whose columns disagree with the schema")
	}
}

func TestBlockEncoderEmptyFinish(t *testing.T) {
	var enc BlockEncoder
	if f := enc.Finish(); f != nil {
		t.Fatalf("empty Finish = %v", f)
	}
}

func TestBlockDecoderRejectsCorruptFrames(t *testing.T) {
	frame := encodeBlock(blockRows(1, 0))
	cases := map[string][]byte{
		"short":       frame[:4+colTailLen-1],
		"not-a-block": append([]byte{1, 0, 0, 0}, frame[4:]...),
		"bad-length":  append(append([]byte{}, frame...), 0xff),
		"bad-version": func() []byte { c := append([]byte{}, frame...); c[4] = 9; return c }(),
		"extra-row":   func() []byte { c := append([]byte{}, frame...); c[6]++; return c }(), // rowCount+1 with no payload
	}
	dst := NewColBatch(nil)
	for name, c := range cases {
		if _, err := (BlockDecoder{}).DecodeBatch(c, dst, blockRowTypes); err == nil {
			t.Errorf("%s: corrupt frame decoded cleanly", name)
		}
	}
}

// TestRetiredWireVersionsRejected pins the one-format contract: a
// well-formed frame of a retired format (v1 per-row, v2 row block, v3 —
// today's layout under the old FNV-1a checksum) or of an unknown future
// version is refused by both decode entry points with an error naming the
// version — no panic, and nothing credited to the flow-control counter.
func TestRetiredWireVersionsRejected(t *testing.T) {
	rows := blockRows(3, 0)
	withVersion := func(v byte) []byte {
		f := encodeBlock(rows)
		f[4] = v
		return f
	}
	cases := []struct {
		version int
		frame   []byte
	}{
		{1, AppendBinary(nil, rows[0])},
		{2, v2BlockFrame(rows)},
		{2, v2BlockFrame([]Row{{NullOf(TypeInt)}})}, // shorter than a columnar header
		{3, withVersion(3)},
		{5, withVersion(5)},
	}
	for _, c := range cases {
		want := fmt.Sprintf("version %d", c.version)
		check := func(entry string, err error, credited int64) {
			t.Helper()
			if err == nil || err == io.EOF {
				t.Errorf("v%d frame via %s: err = %v, want a rejection", c.version, entry, err)
			} else if !strings.Contains(err.Error(), want) {
				t.Errorf("v%d frame via %s: error %q does not name %q", c.version, entry, err, want)
			}
			if credited != 0 {
				t.Errorf("v%d frame via %s: credited %d bytes for a rejected frame", c.version, entry, credited)
			}
		}
		rd := NewReader(bytes.NewReader(c.frame))
		dst := NewColBatch(nil)
		_, err := rd.ReadColBatch(dst, blockRowTypes)
		check("Reader.ReadColBatch", err, rd.Bytes())

		_, err = BlockDecoder{}.DecodeBatch(c.frame, dst, blockRowTypes)
		check("BlockDecoder.DecodeBatch", err, 0)
	}
}

// TestOverLimitLengthWordsRejected: a length word one past its limit — a
// block frame's (MaxBlockSize) — is refused by name at every entry point
// that reads one off a connection, before the buffer it asks for is
// allocated and with nothing credited. The input ends at the word, so a
// decoder that trusted it would report a truncated body instead.
func TestOverLimitLengthWordsRejected(t *testing.T) {
	var block [4]byte
	binary.LittleEndian.PutUint32(block[:], blockFlag|uint32(MaxBlockSize+1))
	for _, c := range []struct {
		entry string
		read  func() (credited int64, err error)
	}{
		{"Reader.ReadColBatch", func() (int64, error) {
			rd := NewReader(bytes.NewReader(block[:]))
			_, err := rd.ReadColBatch(NewColBatch(nil), blockRowTypes)
			return rd.Bytes(), err
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		credited, err := c.read()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Errorf("%s: err = %v, want an over-limit rejection", c.entry, err)
		}
		if credited != 0 {
			t.Errorf("%s: credited %d bytes for a rejected length word", c.entry, credited)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: allocated %d bytes on the word's say-so", c.entry, grew)
		}
	}
}

// TestReaderRejectsEmptyBlockFrame is the regression test for a remote
// panic: the four bytes 00 00 00 80 (block flag set, length 0) used to
// index the version byte of an empty tail. The reader must return an
// error instead.
func TestReaderRejectsEmptyBlockFrame(t *testing.T) {
	frame := []byte{0x00, 0x00, 0x00, 0x80}
	rd := NewReader(bytes.NewReader(frame))
	if _, err := rd.ReadColBatch(NewColBatch(nil), blockRowTypes); err == nil || err == io.EOF {
		t.Errorf("ReadColBatch err = %v, want a rejection", err)
	}
	if rd.Bytes() != 0 {
		t.Errorf("credited %d bytes for a rejected frame", rd.Bytes())
	}
}

// TestReaderReadBlockBatches drains a stream a frame at a time: each
// ReadColBatch call serves exactly one block, however small, and credits
// it whole.
func TestReaderReadBlockBatches(t *testing.T) {
	var wire bytes.Buffer
	rows := blockRows(10, 0)
	wire.Write(encodeBlock(rows))
	single := blockRows(1, 99)
	wire.Write(encodeBlock(single))
	wireLen := int64(wire.Len())

	rd := NewReader(&wire)
	dst := NewColBatch(nil)
	n, err := rd.ReadColBatch(dst, blockRowTypes)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(rows) {
		t.Fatalf("first batch = %d rows, want %d", n, len(rows))
	}
	n, err = rd.ReadColBatch(dst, blockRowTypes)
	if err != nil || n != 1 || !dst.RowAt(0, nil).Equal(single[0]) {
		t.Fatalf("one-row batch = %d rows %v (err %v)", n, dst.Rows(nil), err)
	}
	if _, err := rd.ReadColBatch(dst, blockRowTypes); err != io.EOF {
		t.Fatalf("end err = %v", err)
	}
	if rd.Bytes() != wireLen {
		t.Fatalf("Bytes() = %d, wire had %d", rd.Bytes(), wireLen)
	}
}

// TestBlocksRoundTripThroughDiskFile writes block frames to a file the way
// the sender's spill path does (raw frame bytes, one write per block) and
// re-reads the rows through the frame reader.
func TestBlocksRoundTripThroughDiskFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []Row
	var frames [][]byte
	for b := 0; b < 5; b++ {
		rows := blockRows(50+b, b*1000)
		want = append(want, rows...)
		frame := encodeBlock(rows)
		frames = append(frames, append([]byte(nil), frame...))
		if _, err := f.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, bytes.Join(frames, nil)) {
		t.Fatal("spill file is not the byte-identical concatenation of the frames")
	}
	rd := NewReader(bytes.NewReader(raw))
	dst := NewColBatch(nil)
	var got []Row
	for {
		_, err := rd.ReadColBatch(dst, blockRowTypes)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = dst.Rows(got)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d rows after disk round-trip, want %d", len(got), len(want))
	}
	for i, w := range want {
		if !got[i].Equal(w) {
			t.Fatalf("row %d after disk round-trip = %v, want %v", i, got[i], w)
		}
	}
}

func TestBlockBufferPoolReuse(t *testing.T) {
	b := NewBlockBuffer()
	if len(b) != 0 {
		t.Fatalf("pooled buffer not empty: %d", len(b))
	}
	b = append(b, 1, 2, 3)
	RecycleBlockBuffer(b)
	// A recycled buffer must come back empty (the pool may also hand out a
	// fresh one; either way the contract is len==0).
	b2 := NewBlockBuffer()
	if len(b2) != 0 {
		t.Fatalf("reused buffer not reset: %d", len(b2))
	}
	RecycleBlockBuffer(b2)
}

package row

import (
	"fmt"
	"math"
	"sync"
)

// Block frames are the unit of the streaming transfer: one length word, one
// log entry and at most one disk write cover ~BlockTargetRows rows. This
// file holds the sender-side encoder and the pooled frame buffers; the
// frame layout and its codec are in colblock.go.

const (
	// blockFlag is the top bit of a block frame's length word; the low 31
	// bits are the byte count that follows the word.
	blockFlag = uint32(1) << 31

	// rowBlockHeaderLen is what a block of row-encoded rows spends on
	// framing (length word, version, flags, row count) — the fixed term of
	// BlockEncoder.RawBytes.
	rowBlockHeaderLen = 10

	// BlockTargetRows and BlockTargetBytes are the default flush budgets:
	// a block is emitted when it reaches either. The row budget IS the
	// engine's batch granularity (DefaultBatchSize), so one pipeline batch
	// fills exactly one wire block; ~64 KB keeps a block inside a few
	// socket buffers.
	BlockTargetRows  = DefaultBatchSize
	BlockTargetBytes = 64 << 10
)

// MaxBlockSize bounds one block frame, guarding corrupt length words.
const MaxBlockSize = 128 << 20

// blockBufPool recycles block buffers across frames. Buffers are handed
// out by NewBlockBuffer and returned by RecycleBlockBuffer once the frame
// has been copied or written out; the stream sender's log copies each
// frame at its exact size and returns the buffer at once.
var blockBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, BlockTargetBytes+4<<10)
		return &b
	},
}

// NewBlockBuffer returns an empty, pooled byte buffer sized for one block.
func NewBlockBuffer() []byte {
	return (*blockBufPool.Get().(*[]byte))[:0]
}

// RecycleBlockBuffer returns a buffer obtained from NewBlockBuffer (or a
// finished block frame built on one) to the pool. The caller must not
// touch the slice afterwards. Undersized buffers are dropped rather than
// pooled, so the pool only ever hands out block-capacity buffers.
func RecycleBlockBuffer(b []byte) {
	if cap(b) < BlockTargetBytes {
		return
	}
	blockBufPool.Put(&b)
}

// blockFrameLen validates a frame's length word and returns the byte count
// that follows it. A word without the block flag is what the retired
// per-row (v1) framing put on the wire.
func blockFrameLen(word uint32) (int, error) {
	if word&blockFlag == 0 {
		return 0, fmt.Errorf("row: unsupported wire format version 1 (per-row frame, length word %#x); only v%d block frames are accepted", word, WireProtoCol)
	}
	n := int(word &^ blockFlag)
	if n > MaxBlockSize {
		return 0, fmt.Errorf("row: block of %d bytes exceeds limit", n)
	}
	return n, nil
}

// BlockEncoder packs rows into one block frame. EnableColumnar sets the
// column types; appends then stage into a column-major ColBatch, and
// Finish encodes the staged rows as one frame (AppendColBlock) on a pooled
// buffer and starts the next block. AppendRows stages rows up to the
// caller's Rows()/RawBytes() budget; Finish then takes the frame.
type BlockEncoder struct {
	rows     int
	compress bool
	colTypes []Type
	col      *ColBatch
	rawBytes int
	prices   []int // AppendBatch's price scratch
}

// EnableColumnar sets the column types of the frames to build. With
// compress false every column keeps its raw encoding (the ablation grid's
// uncompressed arm). Must be called before the first append.
func (e *BlockEncoder) EnableColumnar(types []Type, compress bool) {
	e.compress, e.colTypes = compress, types
}

// staging returns the staging batch, creating it on first use, and opens
// a new block's RawBytes account with the block header. The batch is plain
// (not pooled): it lives for the whole transfer and recycles its own
// vector capacity across Finish calls.
func (e *BlockEncoder) staging() *ColBatch {
	if e.col == nil {
		e.col = NewColBatch(e.colTypes)
	}
	if e.rows == 0 {
		e.rawBytes = rowBlockHeaderLen
	}
	return e.col
}

// vectorCellSize is the cost of slot p of a vector in the binary row
// encoding (binary.go): the tag byte plus the type's payload. It prices
// the staged rows so flush budgets and the raw-vs-wire stats are in a
// currency that does not depend on how well a block compresses.
func vectorCellSize(v *Vector, p int) int {
	switch {
	case v.Null(p):
		return 1
	case v.Type() == TypeString:
		return 5 + len(v.Bytes(p))
	case v.Type() == TypeBool:
		return 2
	default:
		return 9
	}
}

// PriceRows appends to dst the RawBytes price of each of b's rows at pos —
// the row's 4-byte length word plus every cell's vectorCellSize — in one
// pass per column; a fixed-width column with no NULLs adds a constant.
func PriceRows(dst []int, b *ColBatch, pos []int32) []int {
	fixed := 4
	for c := range b.cols {
		if v := &b.cols[c]; v.typ != TypeString && !v.hasNulls {
			fixed += vectorCellSize(v, 0)
		}
	}
	n := len(dst)
	for range pos {
		dst = append(dst, fixed)
	}
	for c := range b.cols {
		if v := &b.cols[c]; v.typ == TypeString || v.hasNulls {
			for i, p := range pos {
				dst[n+i] += vectorCellSize(v, int(p))
			}
		}
	}
	return dst
}

// AppendRows stages b's rows at pos, in order, into the current block
// until the block holds maxRows rows or maxBytes RawBytes — the row that
// reaches either is staged — and returns how many it staged. prices holds
// each row's PriceRows price. It is the encoder's one staging path: one
// AppendGather per column.
func (e *BlockEncoder) AppendRows(b *ColBatch, pos []int32, prices []int, maxRows, maxBytes int) int {
	if len(pos) == 0 {
		return 0
	}
	st := e.staging()
	m, raw := 0, e.rawBytes
	for m < len(pos) {
		raw += prices[m]
		m++
		if e.rows+m >= maxRows || raw >= maxBytes {
			break
		}
	}
	for c := range b.cols {
		st.cols[c].AppendGather(&b.cols[c], pos[:m])
	}
	st.n += m
	e.rows += m
	e.rawBytes = raw
	return m
}

// AppendBatch stages every live row of a column-major batch into the
// current block.
func (e *BlockEncoder) AppendBatch(b *ColBatch) {
	pos := b.LivePos()
	e.prices = PriceRows(e.prices[:0], b, pos)
	e.AppendRows(b, pos, e.prices, math.MaxInt, math.MaxInt)
}

// Rows returns the number of rows in the current block.
func (e *BlockEncoder) Rows() int { return e.rows }

// RawBytes returns the current block's pre-compression size — what the
// staged rows would cost in the binary row encoding, computed without
// encoding them. It is the flush-budget currency and, sampled just before
// Finish, the numerator of the compression ratio.
func (e *BlockEncoder) RawBytes() int { return e.rawBytes }

// Finish seals and returns the block frame, transferring ownership to the
// caller (recycle it with RecycleBlockBuffer once it has left the
// process). It returns nil when no rows were appended.
func (e *BlockEncoder) Finish() []byte {
	if e.rows == 0 {
		return nil
	}
	frame := AppendColBlock(NewBlockBuffer(), e.col, e.compress)
	e.col.Reset(e.colTypes)
	e.rows, e.rawBytes = 0, 0
	return frame
}

// BlockDecoder decodes whole block frames into caller-owned batches; it is
// the decode-side twin of BlockEncoder and carries no state.
type BlockDecoder struct{}

// DecodeBatch decodes one whole block frame (length word included) into
// dst, which must come out with the given column types, and returns the
// row count. The frame lands column-major with no row materialization.
func (BlockDecoder) DecodeBatch(frame []byte, dst *ColBatch, types []Type) (int, error) {
	rows, err := DecodeColBlock(frame, dst)
	if err != nil {
		return 0, err
	}
	if err := colTypesMatch(dst, types); err != nil {
		return 0, err
	}
	return rows, nil
}

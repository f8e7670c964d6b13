package row

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
)

// Columnar block frames are the streaming transfer's one wire format. A
// frame ships a whole ColBatch column-major: per-column typed vectors with
// their null bitmaps, the selection vector applied at encode time, and a
// lightweight encoding chosen per column per block. The receiving side
// decodes straight into a pooled ColBatch, so the transfer path runs
// column-at-a-time end to end and rows are materialized only for
// row-at-a-time consumers and UDF shims.
//
// The version byte is 4. v1 (a frame per row) and v2 (blocks of
// row-encoded rows) are retired; v3 was this layout under an FNV-1a-32
// checksum, replaced by the far faster CRC-32C, and the version moved with
// it so that a v3 frame is refused by name, not as a checksum mismatch.
// Every decoder rejects a frame of any other version with an error naming
// it.
//
// Frame layout (all little-endian):
//
//	uint32  blockFlag | n   (top bit always set; low 31 bits are the byte
//	                         count that follows this word — a zero word is
//	                         the end-of-stream marker, see WriteEOS)
//	uint8   version         (WireProtoCol)
//	uint8   flags           (bit 0: per-column compression was disabled)
//	uint32  row count
//	uint32  checksum        (CRC-32C over everything after this field)
//	uint16  column count
//	per column:
//	  uint8   column type
//	  uint8   encoding      (colEncRaw / colEncIntFOR / colEncBoolPack /
//	                         colEncDict)
//	  uint8   has-nulls     (1 ⇒ a null bitmap follows: ceil(rows/64)
//	                         little-endian uint64 words, bit i = slot i NULL)
//	  [null bitmap]
//	  uint32  payload length
//	  payload
//
// Per-column encodings and their selection rules:
//
//   - BIGINT: frame-of-reference + varint — an 8-byte base (the signed
//     minimum of the block's non-null values) followed by one uvarint
//     delta per slot (modular uint64 arithmetic, so any int64 range is
//     exact; NULL slots write delta 0). Chosen when the encoded size beats
//     raw 8-bytes-per-slot, which it does whenever a block's values
//     cluster — ids, timestamps, recoded categoricals.
//   - VARCHAR: dictionary — distinct values (in first-appearance order)
//     then one uvarint code per slot, the same low-NDV bet the transform
//     recode map makes. Abandoned past colDictMaxEntries distinct values
//     or when the dictionary would not beat raw (uvarint length + bytes
//     per slot).
//   - BOOLEAN: bit-packed, 1 bit per slot.
//   - DOUBLE: raw IEEE754, 8 bytes per slot (floats rarely repeat; the
//     uncompressed fallback is the encoding).
//
// Every encoding writes exactly one entry per slot, NULL or not, so the
// decoder never needs the bitmap to find payload boundaries — corrupt
// bitmaps cannot desynchronize the parse, and the checksum catches the
// rest before any vector is sized.

const (
	// WireProtoCol is the version byte of the columnar block frame — the
	// only version any decoder accepts.
	WireProtoCol = 4

	// colTailLen is the fixed frame header after the length word:
	// version(1) + flags(1) + rowCount(4) + checksum(4) + colCount(2).
	colTailLen = 12

	// colFlagRawOnly marks a frame whose columns skipped compression (the
	// ablation grid's uncompressed arm); purely informational.
	colFlagRawOnly = 1

	colEncRaw      = 0 // type-sized slots (VARCHAR: uvarint length + bytes)
	colEncIntFOR   = 1 // BIGINT frame-of-reference base + uvarint deltas
	colEncBoolPack = 2 // BOOLEAN 1 bit per slot
	colEncDict     = 3 // VARCHAR dictionary + uvarint code per slot

	// colDictMaxEntries caps the per-block dictionary; blocks with more
	// distinct strings fall back to raw.
	colDictMaxEntries = 256

	// colMaxCols bounds the column count a decoder will accept, guarding
	// corrupt headers (no schema in the tree is near this).
	colMaxCols = 4096
)

// castagnoli is the CRC-32C table, built once.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameChecksum is the CRC-32C of b — the frame checksum.
func frameChecksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// uvarintLen returns the encoded size of x.
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// AppendColBlock appends one columnar frame carrying b's live rows
// (selection applied) to dst — length word included — and returns dst.
// With compress false every column uses its raw encoding (the ablation
// grid's uncompressed arm). Zero live rows append nothing.
func AppendColBlock(dst []byte, b *ColBatch, compress bool) []byte {
	rows := b.Len()
	if rows == 0 {
		return dst
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length word, patched below
	flags := byte(0)
	if !compress {
		flags = colFlagRawOnly
	}
	dst = append(dst, WireProtoCol, flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rows))
	dst = append(dst, 0, 0, 0, 0) // checksum, patched below
	sumStart := len(dst)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(b.NumCols()))
	for c := 0; c < b.NumCols(); c++ {
		dst = appendColVector(dst, b.Col(c), b, rows, compress)
	}
	binary.LittleEndian.PutUint32(dst[start:], blockFlag|uint32(len(dst)-start-4))
	binary.LittleEndian.PutUint32(dst[start+10:], frameChecksum(dst[sumStart:]))
	return dst
}

// appendColVector encodes one column's live slots: type byte, encoding
// byte, optional null bitmap, length-prefixed payload.
func appendColVector(dst []byte, v *Vector, b *ColBatch, rows int, compress bool) []byte {
	dst = append(dst, byte(v.typ))
	enc := byte(colEncRaw)
	if compress {
		switch v.typ {
		case TypeInt:
			if base, size := intFORSize(v, b, rows); size < 8*rows {
				return appendIntFOR(dst, v, b, rows, base)
			}
		case TypeBool:
			enc = colEncBoolPack
		case TypeString:
			if entries, ids, ok := dictPlan(v, b, rows); ok {
				return appendDict(dst, v, b, rows, entries, ids)
			}
		}
	}
	dst = append(dst, enc)
	dst = appendColNulls(dst, v, b, rows)
	lenPos := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	switch v.typ {
	case TypeInt:
		for si := 0; si < rows; si++ {
			var u uint64
			if p := b.SelPos(si); !v.Null(p) {
				u = uint64(v.Ints[p])
			}
			dst = binary.LittleEndian.AppendUint64(dst, u)
		}
	case TypeFloat:
		for si := 0; si < rows; si++ {
			var u uint64
			if p := b.SelPos(si); !v.Null(p) {
				u = math.Float64bits(v.Floats[p])
			}
			dst = binary.LittleEndian.AppendUint64(dst, u)
		}
	case TypeBool:
		if enc == colEncBoolPack {
			packStart := len(dst)
			dst = append(dst, make([]byte, (rows+7)/8)...)
			for si := 0; si < rows; si++ {
				if p := b.SelPos(si); !v.Null(p) && v.Bools[p] {
					dst[packStart+si/8] |= 1 << (uint(si) & 7)
				}
			}
		} else {
			for si := 0; si < rows; si++ {
				if p := b.SelPos(si); !v.Null(p) && v.Bools[p] {
					dst = append(dst, 1)
				} else {
					dst = append(dst, 0)
				}
			}
		}
	case TypeString:
		for si := 0; si < rows; si++ {
			p := b.SelPos(si)
			if v.Null(p) {
				dst = append(dst, 0) // uvarint(0): empty placeholder
				continue
			}
			s := v.Bytes(p)
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
	}
	binary.LittleEndian.PutUint32(dst[lenPos:], uint32(len(dst)-lenPos-4))
	return dst
}

// appendColNulls writes the has-nulls byte and, when any live slot is
// NULL, the compacted bitmap (selection applied) as little-endian uint64
// words.
func appendColNulls(dst []byte, v *Vector, b *ColBatch, rows int) []byte {
	if !v.hasNulls {
		return append(dst, 0)
	}
	words := (rows + 63) / 64
	bitmap := make([]uint64, words)
	any := false
	for si := 0; si < rows; si++ {
		if v.Null(b.SelPos(si)) {
			bitmap[si>>6] |= 1 << (uint(si) & 63)
			any = true
		}
	}
	if !any {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	for _, w := range bitmap {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// intFORSize scans a BIGINT column's live slots and returns the
// frame-of-reference base (the signed minimum) and the encoded payload
// size (base + one uvarint delta per slot, NULL slots delta 0).
func intFORSize(v *Vector, b *ColBatch, rows int) (base int64, size int) {
	size = 8
	first := true
	for si := 0; si < rows; si++ {
		p := b.SelPos(si)
		if v.Null(p) {
			continue
		}
		if x := v.Ints[p]; first || x < base {
			base, first = x, false
		}
	}
	ub := uint64(base)
	for si := 0; si < rows; si++ {
		p := b.SelPos(si)
		if v.Null(p) {
			size++
			continue
		}
		size += uvarintLen(uint64(v.Ints[p]) - ub)
	}
	return base, size
}

// appendIntFOR emits a BIGINT column frame-of-reference encoded.
func appendIntFOR(dst []byte, v *Vector, b *ColBatch, rows int, base int64) []byte {
	dst = append(dst, colEncIntFOR)
	dst = appendColNulls(dst, v, b, rows)
	lenPos := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(base))
	ub := uint64(base)
	for si := 0; si < rows; si++ {
		p := b.SelPos(si)
		if v.Null(p) {
			dst = append(dst, 0)
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(v.Ints[p])-ub)
	}
	binary.LittleEndian.PutUint32(dst[lenPos:], uint32(len(dst)-lenPos-4))
	return dst
}

// dictPlan scans a VARCHAR column's live slots and decides whether a
// per-block dictionary beats raw. It returns the distinct values in code
// order (aliasing the vector's slab; valid for the encode only) and the
// per-slot codes; map indexing with a string(bytes) key does not allocate.
func dictPlan(v *Vector, b *ColBatch, rows int) (entries [][]byte, ids []uint64, ok bool) {
	codes := make(map[string]uint64, 16)
	ids = make([]uint64, rows)
	rawSize, dictSize := 0, 0
	for si := 0; si < rows; si++ {
		p := b.SelPos(si)
		if v.Null(p) {
			rawSize++
			dictSize++
			continue
		}
		s := v.Bytes(p)
		rawSize += uvarintLen(uint64(len(s))) + len(s)
		id, seen := codes[string(s)]
		if !seen {
			if len(entries) >= colDictMaxEntries {
				return nil, nil, false
			}
			id = uint64(len(entries))
			codes[string(s)] = id
			entries = append(entries, s)
			dictSize += uvarintLen(uint64(len(s))) + len(s)
		}
		dictSize += uvarintLen(id)
		ids[si] = id
	}
	dictSize += uvarintLen(uint64(len(entries)))
	if dictSize >= rawSize {
		return nil, nil, false
	}
	return entries, ids, true
}

// appendDict emits a VARCHAR column dictionary-encoded.
func appendDict(dst []byte, v *Vector, b *ColBatch, rows int, entries [][]byte, ids []uint64) []byte {
	dst = append(dst, colEncDict)
	dst = appendColNulls(dst, v, b, rows)
	lenPos := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = binary.AppendUvarint(dst, uint64(len(e)))
		dst = append(dst, e...)
	}
	for si := 0; si < rows; si++ {
		dst = binary.AppendUvarint(dst, ids[si])
	}
	binary.LittleEndian.PutUint32(dst[lenPos:], uint32(len(dst)-lenPos-4))
	return dst
}

// DecodeColBlock decodes one whole frame (length word included) into dst,
// resetting it, and returns the row count. The typical wire path goes
// through Reader.ReadColBatch instead, which has already consumed the
// length word.
func DecodeColBlock(frame []byte, dst *ColBatch) (int, error) {
	if len(frame) < 4 {
		return 0, fmt.Errorf("row: short block frame (%d bytes)", len(frame))
	}
	n, err := blockFrameLen(binary.LittleEndian.Uint32(frame))
	if err != nil {
		return 0, err
	}
	if n != len(frame)-4 {
		return 0, fmt.Errorf("row: block frame length %d, have %d bytes", n, len(frame)-4)
	}
	return decodeColTail(frame[4:], dst)
}

// colHeaderRows validates the fixed header of a frame tail (everything
// after the length word) — version byte, header length, row-count bound —
// and returns the row count. The version is checked first so that a frame
// of a retired format is named as such even when it is shorter than a
// columnar header.
func colHeaderRows(tail []byte) (int, error) {
	if len(tail) == 0 {
		return 0, fmt.Errorf("row: empty block frame")
	}
	if v := tail[0]; v != WireProtoCol {
		return 0, fmt.Errorf("row: unsupported block frame version %d; only v%d is accepted", v, WireProtoCol)
	}
	if len(tail) < colTailLen {
		return 0, fmt.Errorf("row: truncated columnar header")
	}
	rows := int(binary.LittleEndian.Uint32(tail[2:]))
	if rows > MaxBlockSize {
		return 0, fmt.Errorf("row: columnar frame claims %d rows", rows)
	}
	return rows, nil
}

// decodeColTail decodes everything after a frame's length word into dst,
// resetting it, and returns the row count. Corruption — truncation, bit
// flips, lying lengths — yields an error, never a panic, and the checksum
// plus per-encoding size checks run before any vector is sized, so a
// hostile frame cannot force large allocations.
func decodeColTail(tail []byte, dst *ColBatch) (int, error) {
	rows, err := colHeaderRows(tail)
	if err != nil {
		return 0, err
	}
	if want, got := binary.LittleEndian.Uint32(tail[6:]), frameChecksum(tail[10:]); want != got {
		return 0, fmt.Errorf("row: columnar frame checksum mismatch (header %08x, payload %08x)", want, got)
	}
	nc := int(binary.LittleEndian.Uint16(tail[10:]))
	if nc > colMaxCols {
		return 0, fmt.Errorf("row: columnar frame claims %d columns", nc)
	}
	if cap(dst.cols) < nc {
		dst.cols = make([]Vector, nc)
	} else {
		dst.cols = dst.cols[:nc]
	}
	dst.n = 0
	dst.sel = nil
	p := tail[colTailLen:]
	for c := 0; c < nc; c++ {
		rest, err := decodeColVector(p, &dst.cols[c], rows)
		if err != nil {
			return 0, fmt.Errorf("row: column %d: %w", c, err)
		}
		p = rest
	}
	if len(p) != 0 {
		return 0, fmt.Errorf("row: %d trailing columnar frame bytes", len(p))
	}
	dst.n = rows
	return rows, nil
}

// decodeColVector decodes one column section off the front of p into v,
// returning the rest.
func decodeColVector(p []byte, v *Vector, rows int) ([]byte, error) {
	if len(p) < 3 {
		return nil, fmt.Errorf("truncated column header")
	}
	typ, enc, hasNulls := Type(p[0]), p[1], p[2]
	if typ < TypeInt || typ > TypeBool {
		return nil, fmt.Errorf("unknown column type %d", typ)
	}
	if hasNulls > 1 {
		return nil, fmt.Errorf("bad has-nulls byte %d", hasNulls)
	}
	p = p[3:]
	var bitmap []byte
	if hasNulls == 1 {
		nb := (rows + 63) / 64 * 8
		if len(p) < nb {
			return nil, fmt.Errorf("truncated null bitmap")
		}
		bitmap, p = p[:nb], p[nb:]
	}
	if len(p) < 4 {
		return nil, fmt.Errorf("truncated payload length")
	}
	plen := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if plen > len(p) {
		return nil, fmt.Errorf("payload of %d bytes, %d remain", plen, len(p))
	}
	payload, rest := p[:plen], p[plen:]
	nullAt := func(i int) bool {
		return bitmap != nil && bitmap[i>>3]&(1<<(uint(i)&7)) != 0
	}
	// A fixed-width vector is sized once, for rows slots, only after its
	// payload length has been checked against rows; VARCHAR builds
	// sequentially.
	switch {
	case typ == TypeInt && enc == colEncRaw:
		if plen != 8*rows {
			return nil, fmt.Errorf("raw BIGINT payload %d bytes for %d rows", plen, rows)
		}
		v.ResetDense(typ, rows)
		for i := range v.Ints {
			v.Ints[i] = int64(binary.LittleEndian.Uint64(payload[8*i:]))
		}
	case typ == TypeInt && enc == colEncIntFOR:
		if plen < 8+rows {
			return nil, fmt.Errorf("FOR payload %d bytes for %d rows", plen, rows)
		}
		v.ResetDense(typ, rows)
		base := binary.LittleEndian.Uint64(payload)
		q := payload[8:]
		for i := range v.Ints {
			d, n := binary.Uvarint(q)
			if n <= 0 {
				return nil, fmt.Errorf("bad FOR delta at slot %d", i)
			}
			q = q[n:]
			v.Ints[i] = int64(base + d)
		}
		if len(q) != 0 {
			return nil, fmt.Errorf("%d trailing FOR bytes", len(q))
		}
	case typ == TypeFloat && enc == colEncRaw:
		if plen != 8*rows {
			return nil, fmt.Errorf("raw DOUBLE payload %d bytes for %d rows", plen, rows)
		}
		v.ResetDense(typ, rows)
		for i := range v.Floats {
			v.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
	case typ == TypeBool && enc == colEncRaw:
		if plen != rows {
			return nil, fmt.Errorf("raw BOOLEAN payload %d bytes for %d rows", plen, rows)
		}
		v.ResetDense(typ, rows)
		for i := range v.Bools {
			v.Bools[i] = payload[i] != 0
		}
	case typ == TypeBool && enc == colEncBoolPack:
		if plen != (rows+7)/8 {
			return nil, fmt.Errorf("bit-packed payload %d bytes for %d rows", plen, rows)
		}
		v.ResetDense(typ, rows)
		for i := range v.Bools {
			v.Bools[i] = payload[i/8]&(1<<(uint(i)&7)) != 0
		}
	case typ == TypeString && enc == colEncRaw:
		if plen < rows {
			return nil, fmt.Errorf("raw VARCHAR payload %d bytes for %d rows", plen, rows)
		}
		v.Reset(typ)
		q := payload
		for i := 0; i < rows; i++ {
			n, w := binary.Uvarint(q)
			if w <= 0 || n > uint64(len(q)-w) {
				return nil, fmt.Errorf("bad VARCHAR length at slot %d", i)
			}
			v.AppendBytes(q[w : w+int(n)])
			q = q[w+int(n):]
		}
		if len(q) != 0 {
			return nil, fmt.Errorf("%d trailing VARCHAR bytes", len(q))
		}
	case typ == TypeString && enc == colEncDict:
		if plen < 1+rows {
			return nil, fmt.Errorf("dictionary payload %d bytes for %d rows", plen, rows)
		}
		v.Reset(typ)
		q := payload
		count, w := binary.Uvarint(q)
		if w <= 0 || count > colDictMaxEntries {
			return nil, fmt.Errorf("bad dictionary size")
		}
		q = q[w:]
		entries := make([][]byte, count)
		for e := range entries {
			n, w := binary.Uvarint(q)
			if w <= 0 || n > uint64(len(q)-w) {
				return nil, fmt.Errorf("bad dictionary entry %d", e)
			}
			entries[e] = q[w : w+int(n)]
			q = q[w+int(n):]
		}
		for i := 0; i < rows; i++ {
			id, w := binary.Uvarint(q)
			if w <= 0 {
				return nil, fmt.Errorf("bad dictionary code at slot %d", i)
			}
			q = q[w:]
			if nullAt(i) {
				v.AppendBytes(nil)
				continue
			}
			if id >= count {
				return nil, fmt.Errorf("dictionary code %d of %d at slot %d", id, count, i)
			}
			v.AppendBytes(entries[id])
		}
		if len(q) != 0 {
			return nil, fmt.Errorf("%d trailing dictionary bytes", len(q))
		}
	default:
		return nil, fmt.Errorf("encoding %d invalid for type %s", enc, typ)
	}
	if bitmap != nil {
		words := (rows + 63) / 64
		if cap(v.nulls) < words {
			v.nulls = make([]uint64, words)
		} else {
			v.nulls = v.nulls[:words]
		}
		any := uint64(0)
		for w := 0; w < words; w++ {
			v.nulls[w] = binary.LittleEndian.Uint64(bitmap[8*w:])
			any |= v.nulls[w]
		}
		v.hasNulls = any != 0
	}
	return rest, nil
}

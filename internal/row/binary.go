package row

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The binary row encoding is the self-describing, length-prefixed form of
// one row: the §8 message log stores its entries in it, the hash-path
// oracles compare against it, and the streaming transfer prices its frames
// in it (BlockEncoder.RawBytes). The transfer itself ships columnar block
// frames (colblock.go), not these.
//
// Layout (all little-endian):
//
//	uint32  body length (bytes after this word)
//	per value:
//	  uint8   tag: 0=NULL-int 1=NULL-float 2=NULL-string 3=NULL-bool
//	               4=int 5=float 6=string 7=bool
//	  payload int: int64 (8 bytes); float: IEEE754 bits;
//	          string: uint32 length + bytes; bool: 1 byte
//
// Arity is carried by the schema exchanged out of band (WriteSchema /
// ReadSchema on a stream, the topic schema in the message log).

const (
	tagNullBase = 0
	tagIntV     = 4
	tagFloatV   = 5
	tagStringV  = 6
	tagBoolV    = 7
)

// MaxFrameSize bounds a single encoded row or schema header to guard
// against corrupt length prefixes.
const MaxFrameSize = 64 << 20

// AppendBinary appends the binary encoding of the row (including the
// length prefix) to dst.
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

// DecodeBinary decodes one row body (without the length prefix) into a row.
func DecodeBinary(body []byte) (Row, error) {
	var out Row
	i := 0
	for i < len(body) {
		tag := body[i]
		i++
		switch {
		case tag < 4:
			out = append(out, NullOf(Type(tag)))
		case tag == tagIntV:
			if i+8 > len(body) {
				return nil, fmt.Errorf("row: truncated int payload")
			}
			out = append(out, Int(int64(binary.LittleEndian.Uint64(body[i:]))))
			i += 8
		case tag == tagFloatV:
			if i+8 > len(body) {
				return nil, fmt.Errorf("row: truncated float payload")
			}
			out = append(out, Float(math.Float64frombits(binary.LittleEndian.Uint64(body[i:]))))
			i += 8
		case tag == tagStringV:
			if i+4 > len(body) {
				return nil, fmt.Errorf("row: truncated string length")
			}
			n := int(binary.LittleEndian.Uint32(body[i:]))
			i += 4
			if i+n > len(body) {
				return nil, fmt.Errorf("row: truncated string payload")
			}
			out = append(out, String_(string(body[i:i+n])))
			i += n
		case tag == tagBoolV:
			if i >= len(body) {
				return nil, fmt.Errorf("row: truncated bool payload")
			}
			out = append(out, Bool(body[i] != 0))
			i++
		default:
			return nil, fmt.Errorf("row: unknown value tag %d", tag)
		}
	}
	return out, nil
}

// Reader decodes the streaming transfer's wire frames from an io.Reader.
// There is one frame format — the columnar block frame of colblock.go — and
// a length word that announces anything else (a per-row frame, a block with
// another version byte) is rejected with an error naming what it saw. A
// frame is read off the wire in one I/O operation into a reused buffer;
// ReadColBatch decodes it straight into the caller's batch, and Read serves
// its rows one at a time (the resume handshake's duplicate skip, and
// row-at-a-time consumers).
type Reader struct {
	r     *bufio.Reader
	buf   []byte
	nread int64

	// requireEOS makes a bare io.EOF an error: the stream must end with the
	// explicit end-of-stream frame (WriteEOS). See RequireEOS.
	requireEOS bool

	// staged frame: its tail (aliasing buf — valid until the next frame is
	// read, i.e. until this one is fully served), the rows still to serve,
	// and the wire size to credit to nread once the last of them has been
	// consumed. Read decodes the tail lazily into dec and serves rows off
	// it; ReadColBatch takes an untouched frame whole, zero-pivot.
	tail      []byte
	tailRows  int
	tailWire  int64
	dec       ColBatch
	decoded   bool
	decServed int
}

// Bytes returns the wire bytes of fully consumed frames (headers
// included); the streaming transfer's flow control is driven by this
// counter. A frame counts only once all of its rows have been served, so a
// slow consumer does not grant credit for rows it has merely buffered.
func (r *Reader) Bytes() int64 { return r.nread }

// NewReader returns a frame reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// RequireEOS makes the reader demand the explicit end-of-stream frame
// (WriteEOS): a stream that simply stops is then a truncation error, not a
// clean end. Transports where a peer's death closes the connection — which
// reads as EOF and could land exactly on a frame boundary — need this to
// tell completion from a mid-stream failure; readers over files or buffers,
// where EOF is authoritative, do not set it.
func (r *Reader) RequireEOS() { r.requireEOS = true }

// WriteEOS writes the explicit end-of-stream frame: a zero length word,
// which no data frame ever produces (every block frame carries the flag
// bit). Readers in RequireEOS mode treat it as the only clean end of
// stream.
func WriteEOS(w io.Writer) error {
	var hdr [4]byte
	_, err := w.Write(hdr[:])
	return err
}

// Read decodes the next row. It returns io.EOF cleanly at end of stream.
func (r *Reader) Read() (Row, error) {
	for r.tailRows == 0 {
		if err := r.nextFrame(); err != nil {
			return nil, err
		}
	}
	if !r.decoded {
		if _, err := decodeColTail(r.tail, &r.dec); err != nil {
			return nil, err
		}
		r.decoded, r.decServed = true, 0
	}
	row := r.dec.RowAt(r.decServed, nil)
	r.decServed++
	r.tailRows--
	if r.tailRows == 0 {
		r.nread += r.tailWire
	}
	return row, nil
}

// ReadColBatch decodes the next frame into dst, reset to the given column
// types, and returns its remaining row count. An untouched frame decodes
// straight into dst — the zero-pivot path — while a frame already
// partially served row-wise (the resume handshake's duplicate skip)
// copies over its remaining rows. It returns io.EOF cleanly at end of
// stream, and always consumes (and credits) the whole frame.
func (r *Reader) ReadColBatch(dst *ColBatch, types []Type) (int, error) {
	for r.tailRows == 0 {
		if err := r.nextFrame(); err != nil {
			return 0, err
		}
	}
	if !r.decoded {
		rows, err := decodeColTail(r.tail, dst)
		if err != nil {
			return 0, err
		}
		if err := colTypesMatch(dst, types); err != nil {
			return 0, err
		}
		r.nread += r.tailWire
		r.tailRows = 0
		return rows, nil
	}
	if err := colTypesMatch(&r.dec, types); err != nil {
		return 0, err
	}
	dst.Reset(types)
	for ; r.tailRows > 0; r.tailRows-- {
		for c := 0; c < dst.NumCols(); c++ {
			dst.Col(c).AppendFrom(r.dec.Col(c), r.decServed)
		}
		dst.SetFullLen(dst.FullLen() + 1)
		r.decServed++
	}
	r.nread += r.tailWire
	return dst.Len(), nil
}

// colTypesMatch verifies a decoded batch's shape against the stream
// schema's column types — a frame whose columns disagree with the
// handshake is corrupt.
func colTypesMatch(b *ColBatch, types []Type) error {
	if b.NumCols() != len(types) {
		return fmt.Errorf("row: columnar frame has %d columns, schema has %d", b.NumCols(), len(types))
	}
	for i := range types {
		if b.Col(i).Type() != types[i] {
			return fmt.Errorf("row: columnar frame column %d is %s, schema wants %s", i, b.Col(i).Type(), types[i])
		}
	}
	return nil
}

// nextFrame reads one wire frame into the reused buffer and stages its
// rows for serving. Nothing is credited to Bytes() for a rejected frame.
func (r *Reader) nextFrame() error {
	var hdr [4]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return fmt.Errorf("row: truncated frame header: %w", err)
		}
		if err == io.EOF && r.requireEOS {
			return fmt.Errorf("row: stream ended without end-of-stream frame: %w", io.ErrUnexpectedEOF)
		}
		return err
	}
	word := binary.LittleEndian.Uint32(hdr[:])
	if word == 0 {
		// Explicit end-of-stream frame (WriteEOS).
		return io.EOF
	}
	n, err := blockFrameLen(word)
	if err != nil {
		return err
	}
	if cap(r.buf) < n {
		r.buf = make([]byte, n)
	}
	tail := r.buf[:n]
	if _, err := io.ReadFull(r.r, tail); err != nil {
		return fmt.Errorf("row: truncated block frame: %w", err)
	}
	rows, err := colHeaderRows(tail)
	if err != nil {
		return err
	}
	if rows == 0 {
		// Empty frame: account it and move on.
		r.nread += int64(4 + n)
		return nil
	}
	r.tail, r.decoded = tail, false
	r.tailRows, r.tailWire = rows, int64(4+n)
	return nil
}

// WriteSchema writes a schema header: it precedes the frames on a stream so
// the receiving side can type its output without out-of-band agreement.
func WriteSchema(w io.Writer, s Schema) error {
	enc := []byte(s.String())
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(enc)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(enc)
	return err
}

// ReadSchema reads a schema header written by WriteSchema.
func ReadSchema(r io.Reader) (Schema, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Schema{}, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > MaxFrameSize {
		return Schema{}, fmt.Errorf("row: schema header of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Schema{}, err
	}
	return ParseSchema(string(buf))
}

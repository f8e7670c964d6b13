package row

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// This file holds the receiving end of the streaming transfer: the frame
// Reader and the explicit end-of-stream frame. The frames themselves are
// the columnar blocks of colblock.go; the reader types them from a schema
// agreed out of band.
//
// The binary row encoding — per value a tag byte (0..3 NULL of Type(tag),
// 4=int 5=float 6=string 7=bool) and its payload (8 bytes for int and
// float, uint32 length + bytes for a string, 1 byte for a bool), behind a
// uint32 length word per row — is a price, not a format anything writes:
// BlockEncoder.RawBytes counts what the staged rows would cost in it
// (vectorCellSize), so flush budgets and the raw-vs-wire stats do not move
// with compressibility. Its encoder, AppendBinary, is that count's oracle
// in the tests.

// Reader decodes the streaming transfer's wire frames from an io.Reader.
// There is one frame format — the columnar block frame of colblock.go — and
// a length word that announces anything else (a per-row frame, a block with
// another version byte) is rejected with an error naming what it saw. A
// frame is read off the wire in one I/O operation into a reused buffer, and
// ReadColBatch turns it whole into the caller's batch: the reader has no
// row-at-a-time mode.
type Reader struct {
	r     *bufio.Reader
	buf   []byte
	nread int64

	// requireEOS makes a bare io.EOF an error: the stream must end with the
	// explicit end-of-stream frame (WriteEOS). See RequireEOS.
	requireEOS bool
}

// Bytes returns the wire bytes of the frames read so far (headers
// included); the streaming transfer's flow control is driven by this
// counter. A frame counts once ReadColBatch has returned it whole, and a
// rejected frame never counts.
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

// ReadColBatch reads the next frame and decodes it straight into dst,
// which must come out with the given column types, and returns its row
// count; a frame without rows is credited and skipped. It returns io.EOF
// cleanly at end of stream, and credits each frame to Bytes() whole.
func (r *Reader) ReadColBatch(dst *ColBatch, types []Type) (int, error) {
	for {
		tail, err := r.nextFrame()
		if err != nil {
			return 0, err
		}
		rows, err := decodeColTail(tail, dst)
		if err != nil {
			return 0, err
		}
		if err := colTypesMatch(dst, types); err != nil {
			return 0, err
		}
		r.nread += int64(4 + len(tail))
		if rows > 0 {
			return rows, nil
		}
	}
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

// nextFrame reads one wire frame into the reused buffer and returns what
// follows its length word.
func (r *Reader) nextFrame() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("row: truncated frame header: %w", err)
		}
		if err == io.EOF && r.requireEOS {
			return nil, fmt.Errorf("row: stream ended without end-of-stream frame: %w", io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	word := binary.LittleEndian.Uint32(hdr[:])
	if word == 0 {
		// Explicit end-of-stream frame (WriteEOS).
		return nil, io.EOF
	}
	n, err := blockFrameLen(word)
	if err != nil {
		return nil, err
	}
	if cap(r.buf) < n {
		r.buf = make([]byte, n)
	}
	tail := r.buf[:n]
	if _, err := io.ReadFull(r.r, tail); err != nil {
		return nil, fmt.Errorf("row: truncated block frame: %w", err)
	}
	return tail, nil
}

// Package hadoopfmt defines the Hadoop-style input interfaces that every
// data-consuming engine in this repository ingests through: InputFormat,
// InputSplit, and RecordReader.
//
// The paper's genericity claim rests on exactly this seam: "our techniques
// apply to ... any big ML system that uses Hadoop InputFormats to ingest
// input data". Both the in-memory ML engine and the MapReduce engine here
// read only through these interfaces, so swapping a DFS text table for the
// parallel streaming transfer (stream.SQLStreamInputFormat) requires no
// engine changes — the paper's step-3 getInputSplits hook included.
package hadoopfmt

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"sqlml/internal/cluster"
	"sqlml/internal/dfs"
	"sqlml/internal/row"
)

// InputSplit is one unit of parallel input, consumed by exactly one worker.
type InputSplit interface {
	// Locations returns addresses where reading this split is node-local.
	// Schedulers use these to colocate workers with their data, in the
	// best-effort manner the paper describes.
	Locations() []string
	// Length is the split's size in bytes (approximate for streams).
	Length() int64
	// String identifies the split for logging.
	String() string
}

// RecordReader iterates the rows of one split. Every reader fills column
// batches; Next is the row view over the same cursor, for consumers whose
// contract is one record (MapReduce map tasks, Jaql, ReadAll). Calls
// interleave freely.
type RecordReader interface {
	// Next returns the next row. ok is false at the end of the split.
	Next() (r row.Row, ok bool, err error)
	// NextColBatch resets dst to the reader's schema, fills it with the
	// split's next rows and returns their count. ok is false at the end
	// of the split.
	NextColBatch(dst *row.ColBatch) (n int, ok bool, err error)
	Close() error
}

// ColBatchRecordReader is RecordReader under the name that code written
// against its columnar face uses. It adds nothing; it is a distinct
// interface rather than an alias so that asserting a RecordReader to it
// is not an assertion to the value's own type.
type ColBatchRecordReader interface {
	RecordReader
}

// InputFormat produces splits and readers over a dataset.
type InputFormat interface {
	// Schema returns the row schema of the dataset.
	Schema() (row.Schema, error)
	// Splits divides the input. numSplits is the job's requested degree of
	// parallelism; formats may return a different count (e.g. one split per
	// DFS block, or whatever a stream coordinator dictates).
	Splits(numSplits int) ([]InputSplit, error)
	// Open returns a reader for the split. readerNode is the node the
	// consuming worker was placed on; formats charge remote reads to the
	// cost model through it.
	Open(split InputSplit, readerNode *cluster.Node) (RecordReader, error)
}

// FileSplit is a byte range of a DFS file.
type FileSplit struct {
	Path   string
	Offset int64
	Len    int64
	Hosts  []string
}

// Locations implements InputSplit.
func (s *FileSplit) Locations() []string { return s.Hosts }

// Length implements InputSplit.
func (s *FileSplit) Length() int64 { return s.Len }

// String implements InputSplit.
func (s *FileSplit) String() string {
	return fmt.Sprintf("%s[%d:+%d]", s.Path, s.Offset, s.Len)
}

// TextTableFormat reads a text-format table stored on the DFS: one file,
// or a directory of part files.
type TextTableFormat struct {
	FS          *dfs.FileSystem
	Path        string
	TableSchema row.Schema
}

// NewTextTableFormat returns a format over one DFS text table; path names
// a file or a directory of part files.
func NewTextTableFormat(fs *dfs.FileSystem, path string, schema row.Schema) *TextTableFormat {
	return &TextTableFormat{FS: fs, Path: path, TableSchema: schema}
}

// Schema implements InputFormat.
func (f *TextTableFormat) Schema() (row.Schema, error) { return f.TableSchema, nil }

// Splits implements InputFormat. Over a file, with numSplits <= 0 it
// returns one split per DFS block (inheriting the block's replica hosts for
// locality); otherwise it divides the file into numSplits even byte ranges
// whose locations are the hosts of the blocks they overlap. Over a
// directory it returns every part file's block splits, whatever numSplits
// asks, and skips files whose names start with "_" (Hadoop's rule for
// in-progress attempts and markers such as _SUCCESS); a directory of empty
// part files has no splits, and a path with no file under it is an error.
func (f *TextTableFormat) Splits(numSplits int) ([]InputSplit, error) {
	if f.FS.Exists(f.Path) {
		return fileSplits(f.FS, f.Path, numSplits)
	}
	files := f.FS.List(f.Path)
	if len(files) == 0 {
		return nil, fmt.Errorf("hadoopfmt: no file or directory %q", f.Path)
	}
	var out []InputSplit
	for _, p := range files {
		if strings.HasPrefix(p[strings.LastIndexByte(p, '/')+1:], "_") {
			continue
		}
		splits, err := fileSplits(f.FS, p, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, splits...)
	}
	return out, nil
}

// fileSplits divides one DFS file as Splits describes.
func fileSplits(fs *dfs.FileSystem, path string, numSplits int) ([]InputSplit, error) {
	info, err := fs.Stat(path)
	if err != nil {
		return nil, err
	}
	if info.Size == 0 {
		return nil, nil
	}
	if numSplits <= 0 {
		out := make([]InputSplit, 0, len(info.Blocks))
		for _, b := range info.Blocks {
			out = append(out, &FileSplit{Path: path, Offset: b.Offset, Len: b.Length, Hosts: b.Hosts})
		}
		return out, nil
	}
	if int64(numSplits) > info.Size {
		numSplits = int(info.Size)
	}
	chunk := info.Size / int64(numSplits)
	var out []InputSplit
	for i := 0; i < numSplits; i++ {
		off := int64(i) * chunk
		length := chunk
		if i == numSplits-1 {
			length = info.Size - off
		}
		out = append(out, &FileSplit{
			Path:   path,
			Offset: off,
			Len:    length,
			Hosts:  hostsOverlapping(info.Blocks, off, length),
		})
	}
	return out, nil
}

// Place assigns each split to a node, returning the node's index per
// split: the least-loaded node among the split's locality hosts, or else the
// least-loaded node overall. A node's load is the sum of the Length of the
// splits placed on it so far, and a tie goes to the lowest index. It is the
// best-effort colocation the paper describes, and every consumer of this
// seam (the SQL engine's external scan, ml.Ingest, MapReduce map tasks)
// schedules through it.
func Place(splits []InputSplit, nodes []*cluster.Node) []int {
	loads := make([]int64, len(nodes))
	out := make([]int, len(splits))
	for i, sp := range splits {
		best := -1
		for ni, n := range nodes {
			if (best < 0 || loads[ni] < loads[best]) && slices.Contains(sp.Locations(), n.Addr) {
				best = ni
			}
		}
		if best < 0 {
			best = 0
			for ni := range nodes {
				if loads[ni] < loads[best] {
					best = ni
				}
			}
		}
		loads[best] += sp.Length()
		out[i] = best
	}
	return out
}

func hostsOverlapping(blocks []dfs.BlockLocation, off, length int64) []string {
	seen := make(map[string]bool)
	var hosts []string
	for _, b := range blocks {
		if b.Offset < off+length && off < b.Offset+b.Length {
			for _, h := range b.Hosts {
				if !seen[h] {
					seen[h] = true
					hosts = append(hosts, h)
				}
			}
		}
	}
	return hosts
}

// Open implements InputFormat.
func (f *TextTableFormat) Open(split InputSplit, readerNode *cluster.Node) (RecordReader, error) {
	fsplit, ok := split.(*FileSplit)
	if !ok {
		return nil, fmt.Errorf("hadoopfmt: TextTableFormat cannot open %T", split)
	}
	size, err := f.FS.Size(fsplit.Path)
	if err != nil {
		return nil, err
	}
	// Read from the split start to EOF: the reader must be able to finish
	// the final line even when it crosses the split boundary (the standard
	// Hadoop TextInputFormat convention).
	rd, err := f.FS.OpenRange(fsplit.Path, fsplit.Offset, size-fsplit.Offset, readerNode)
	if err != nil {
		return nil, err
	}
	br := readBufPool.Get().(*bufio.Reader)
	br.Reset(rd)
	lr := &lineRecordReader{
		r:      br,
		closer: rd,
		schema: f.TableSchema,
		types:  row.SchemaTypes(f.TableSchema),
		split:  fsplit,
	}
	if fsplit.Offset > 0 {
		// Skip the (partial) first line: it belongs to the previous split.
		if _, _, err := lr.nextLine(); err != nil {
			if cerr := lr.Close(); cerr != nil {
				err = errors.Join(err, cerr)
			}
			return nil, err
		}
	}
	return lr, nil
}

// readBufPool recycles the 64 KB read buffers: a table is opened once per
// block-sized split, and a buffer per Open would cost as much as the table.
var readBufPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}

// lineRecordReader reads the text lines of one split, straight into a
// column batch (NextColBatch) or one row at a time (Next); the two
// interleave freely and both parse through ColBatch.AppendTextLine into
// a batch they have just Reset to the schema's types.
// A split owns every line that *starts* strictly inside it (plus the line
// starting at offset 0 when the split begins the file), so adjacent splits
// partition lines exactly.
type lineRecordReader struct {
	r        *bufio.Reader // from readBufPool; nil once closed
	closer   io.Closer
	schema   row.Schema
	types    []row.Type
	split    *FileSplit // lines starting beyond its Len belong to the next split
	consumed int64
	lineAt   int64         // offset within the split's range of the line nextLine last returned
	long     []byte        // a line longer than the read buffer, pieced together
	one      *row.ColBatch // Next's one-row scratch batch
	done     bool
}

// nextLine frames the next line the split owns, without its newline. The
// bytes are a view into the read buffer, valid until the following call.
func (l *lineRecordReader) nextLine() (line []byte, ok bool, err error) {
	if l.done || l.consumed > l.split.Len {
		return nil, false, nil
	}
	line, err = l.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		l.long = append(l.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = l.r.ReadSlice('\n')
			l.long = append(l.long, line...)
		}
		line = l.long
	}
	if err == io.EOF {
		l.done = true
		if len(line) == 0 {
			return nil, false, nil
		}
	} else if err != nil {
		return nil, false, err
	}
	l.lineAt = l.consumed
	l.consumed += int64(len(line))
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	return line, true, nil
}

// lineErr says where the line nextLine last returned sits: the split (which
// names the DFS path) and the byte offset of the line's start in the file.
func (l *lineRecordReader) lineErr(err error) error {
	return fmt.Errorf("hadoopfmt: %s: line at byte %d: %w", l.split, l.split.Offset+l.lineAt, err)
}

// Next implements RecordReader: one line, decoded into a one-row scratch
// batch and served as a row.
func (l *lineRecordReader) Next() (row.Row, bool, error) {
	line, ok, err := l.nextLine()
	if err != nil || !ok {
		return nil, false, err
	}
	if l.one == nil {
		l.one = row.NewColBatch(nil)
	}
	l.one.Reset(l.types)
	if err := l.one.AppendTextLine(line, l.schema); err != nil {
		return nil, false, l.lineErr(err)
	}
	return l.one.RowAt(0, nil), true, nil
}

// NextColBatch implements RecordReader: up to DefaultBatchSize of
// the split's remaining lines, parsed off the read buffer into dst's typed
// vectors without a row or a string per line in between.
func (l *lineRecordReader) NextColBatch(dst *row.ColBatch) (int, bool, error) {
	dst.Reset(l.types)
	if err := dst.Conforms(l.schema); err != nil {
		return 0, false, err
	}
	for dst.FullLen() < row.DefaultBatchSize {
		line, ok, err := l.nextLine()
		if err != nil {
			return 0, false, err
		}
		if !ok {
			break
		}
		if err := dst.AppendTextLine(line, l.schema); err != nil {
			return 0, false, l.lineErr(err)
		}
	}
	n := dst.FullLen()
	return n, n > 0, nil
}

// Close implements RecordReader.
func (l *lineRecordReader) Close() error {
	if l.r == nil {
		return nil
	}
	l.r.Reset(nil)
	readBufPool.Put(l.r)
	l.r, l.done = nil, true
	return l.closer.Close()
}

// TextTableWriter streams a DFS text table file as its producer makes the
// rows, a row or a column batch per call, so producers can interleave
// writing with row production instead of materializing the full partition
// first.
type TextTableWriter struct {
	w      *dfs.Writer
	schema row.Schema
	buf    []byte
	total  int64
}

// NewTextTableWriter creates (or replaces) the file at path and returns a
// writer for it.
func NewTextTableWriter(fs *dfs.FileSystem, path string, schema row.Schema, node *cluster.Node) (*TextTableWriter, error) {
	w, err := fs.Create(path, node)
	if err != nil {
		return nil, err
	}
	return &TextTableWriter{w: w, schema: schema}, nil
}

// WriteRow appends one row. On any error the underlying file is aborted.
func (t *TextTableWriter) WriteRow(r row.Row) error {
	if err := r.Conforms(t.schema); err != nil {
		t.w.Abort()
		return err
	}
	return t.write(row.AppendLine(t.buf[:0], r))
}

// WriteBatch appends the batch's live rows, the bytes WriteRow would write
// for each: one shape check for the batch, its lines encoded straight from
// the vectors, and one write. On any error the underlying file is aborted.
func (t *TextTableWriter) WriteBatch(b *row.ColBatch) error {
	if err := b.Conforms(t.schema); err != nil {
		t.w.Abort()
		return err
	}
	return t.write(row.AppendLines(t.buf[:0], b))
}

// write hands encoded lines to the file, keeping p as the next call's
// buffer.
func (t *TextTableWriter) write(p []byte) error {
	t.buf = p
	if _, err := t.w.Write(p); err != nil {
		t.w.Abort()
		return err
	}
	t.total += int64(len(p))
	return nil
}

// Close commits the file and returns the number of bytes written.
func (t *TextTableWriter) Close() (int64, error) {
	if err := t.w.Close(); err != nil {
		return 0, err
	}
	return t.total, nil
}

// Abort discards the file.
func (t *TextTableWriter) Abort() { t.w.Abort() }

// WriteTextTable writes rows to a DFS path in the text table format,
// returning the number of bytes written. It is the common sink used by the
// MapReduce output stage; the SQL engine's export streams its batches
// through TextTableWriter.WriteBatch.
func WriteTextTable(fs *dfs.FileSystem, path string, schema row.Schema, rows []row.Row, node *cluster.Node) (int64, error) {
	w, err := NewTextTableWriter(fs, path, schema, node)
	if err != nil {
		return 0, err
	}
	for _, r := range rows {
		if err := w.WriteRow(r); err != nil {
			return 0, err
		}
	}
	return w.Close()
}

// ReadAll drains an InputFormat completely (all splits, sequentially) and
// returns the rows. It is a convenience for tests and small inputs.
func ReadAll(f InputFormat, node *cluster.Node) ([]row.Row, error) {
	splits, err := f.Splits(0)
	if err != nil {
		return nil, err
	}
	var out []row.Row
	for _, s := range splits {
		rr, err := f.Open(s, node)
		if err != nil {
			return nil, err
		}
		for {
			r, ok, err := rr.Next()
			if err != nil {
				if cerr := rr.Close(); cerr != nil {
					err = errors.Join(err, cerr)
				}
				return nil, err
			}
			if !ok {
				break
			}
			out = append(out, r)
		}
		if err := rr.Close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SliceFormat adapts an in-memory row slice to InputFormat; used by tests
// and by the MapReduce engine for small side inputs.
type SliceFormat struct {
	Rows      []row.Row
	RowSchema row.Schema
	// Hosts optionally pins every split's locality.
	Hosts []string
}

// Schema implements InputFormat.
func (s *SliceFormat) Schema() (row.Schema, error) { return s.RowSchema, nil }

// Splits implements InputFormat, dividing the slice into numSplits runs.
func (s *SliceFormat) Splits(numSplits int) ([]InputSplit, error) {
	if numSplits <= 0 {
		numSplits = 1
	}
	if numSplits > len(s.Rows) {
		numSplits = len(s.Rows)
	}
	if numSplits == 0 {
		return nil, nil
	}
	var out []InputSplit
	per := (len(s.Rows) + numSplits - 1) / numSplits
	for off := 0; off < len(s.Rows); off += per {
		end := off + per
		if end > len(s.Rows) {
			end = len(s.Rows)
		}
		out = append(out, &sliceSplit{rows: s.Rows[off:end], hosts: s.Hosts, id: off})
	}
	return out, nil
}

// Open implements InputFormat.
func (s *SliceFormat) Open(split InputSplit, _ *cluster.Node) (RecordReader, error) {
	ss, ok := split.(*sliceSplit)
	if !ok {
		return nil, fmt.Errorf("hadoopfmt: SliceFormat cannot open %T", split)
	}
	return &sliceReader{split: ss, schema: s.RowSchema, types: row.SchemaTypes(s.RowSchema)}, nil
}

type sliceSplit struct {
	rows  []row.Row
	hosts []string
	id    int
}

func (s *sliceSplit) Locations() []string { return s.hosts }
func (s *sliceSplit) Length() int64       { return int64(len(s.rows)) }
func (s *sliceSplit) String() string      { return fmt.Sprintf("slice@%d(%d rows)", s.id, len(s.rows)) }

// sliceReader serves a split's rows from one cursor, as rows or as column
// batches. Both faces check each row against the schema first, as
// TextTableWriter.WriteRow does, so a malformed row is an error naming it
// rather than a panic in the consumer.
type sliceReader struct {
	split  *sliceSplit
	schema row.Schema
	types  []row.Type
	i      int
}

// take returns the cursor's row, checked, and advances past it.
func (r *sliceReader) take() (row.Row, error) {
	rw := r.split.rows[r.i]
	if err := rw.Conforms(r.schema); err != nil {
		return nil, fmt.Errorf("hadoopfmt: %s: row %d: %w", r.split, r.i, err)
	}
	r.i++
	return rw, nil
}

func (r *sliceReader) Next() (row.Row, bool, error) {
	if r.i >= len(r.split.rows) {
		return nil, false, nil
	}
	rw, err := r.take()
	return rw, err == nil, err
}

func (r *sliceReader) NextColBatch(dst *row.ColBatch) (int, bool, error) {
	dst.Reset(r.types)
	for dst.FullLen() < row.DefaultBatchSize && r.i < len(r.split.rows) {
		rw, err := r.take()
		if err != nil {
			return 0, false, err
		}
		dst.AppendRow(rw)
	}
	n := dst.FullLen()
	return n, n > 0, nil
}

func (r *sliceReader) Close() error { return nil }

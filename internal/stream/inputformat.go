package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"sqlml/internal/cluster"
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/row"
)

// InputFormat is the SQLStreamInputFormat of the paper: a Hadoop-style
// InputFormat whose getInputSplits contacts the coordinator (step 3) and
// whose record readers are TCP servers the SQL workers connect to (step 7).
// Any ML system that ingests via InputFormats can consume the stream by
// swapping this in — no engine changes.
type InputFormat struct {
	CoordAddr string
	Job       string
	// ReceiveBufferSize is the per-reader receive buffer (the paper's
	// experiments use 4 KB). It sizes reads only: credits are granted in
	// the unit the sender names in its start reply, its BufferSize.
	ReceiveBufferSize int
	// AcceptTimeout bounds how long a reader waits for its SQL worker.
	AcceptTimeout time.Duration
	// DialTimeout bounds the coordinator control dials (get_splits,
	// register_ml). 0 means the 10s default.
	DialTimeout time.Duration
	// ReconnectBudget bounds how many times a reader re-accepts on its
	// listener after a mid-stream connection failure, resuming at its
	// consumed offset via the resume handshake, before the failure
	// escalates to task re-execution (hadoopfmt.RetryableError). 0 means
	// the default; negative disables reader-side recovery.
	ReconnectBudget int
	// ConsumeDelay, when positive, is the time consuming each row takes —
	// the slow-consumer knob for the spill ablation, slept once per fetched
	// frame for all of its rows.
	ConsumeDelay time.Duration
	// Inject, when set, is consulted per received row; returning true makes
	// the reader fail abruptly (no ACK), simulating an ML worker crash for
	// the §6 restart tests.
	Inject func(split, rowsRead int) bool

	mu      sync.Mutex
	fetched bool
	schema  row.Schema
	splits  []SplitInfo
}

// Split is one stream split as seen by the ML engine.
type Split struct {
	Info      SplitInfo
	coordAddr string
	job       string
}

// Locations implements hadoopfmt.InputSplit: the SQL worker's address, so
// schedulers colocate the ML worker with its data producer.
func (s *Split) Locations() []string { return s.Info.Locations }

// Length implements hadoopfmt.InputSplit. Stream sizes are unknown ahead
// of transfer.
func (s *Split) Length() int64 { return 0 }

// String implements hadoopfmt.InputSplit.
func (s *Split) String() string {
	return fmt.Sprintf("stream:%s/split-%d(sql-worker-%d)", s.job, s.Info.ID, s.Info.SQLWorker)
}

// fetch retrieves (once) the split list and schema from the coordinator.
// The coordinator exchange runs outside f.mu — holding a mutex across a
// dial would stall every other InputFormat method for the full network
// timeout. Two racing callers may both fetch; the exchange is a pure
// read, and the second publisher finds fetched already set and drops its
// copy.
func (f *InputFormat) fetch() error {
	f.mu.Lock()
	fetched := f.fetched
	f.mu.Unlock()
	if fetched {
		return nil
	}
	schema, splits, err := f.fetchSplits()
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.fetched {
		f.schema = schema
		f.splits = splits
		f.fetched = true
	}
	return nil
}

// dialTimeout is the coordinator control-dial bound.
func (f *InputFormat) dialTimeout() time.Duration {
	if f.DialTimeout > 0 {
		return f.DialTimeout
	}
	return 10 * time.Second
}

// fetchSplits performs the get_splits exchange with the coordinator.
func (f *InputFormat) fetchSplits() (row.Schema, []SplitInfo, error) {
	reply, err := request(f.CoordAddr, f.dialTimeout(), 0, message{Type: "get_splits", Job: f.Job}, "splits")
	if err != nil {
		return row.Schema{}, nil, err
	}
	schema, err := row.ParseSchema(reply.Schema)
	if err != nil {
		return row.Schema{}, nil, err
	}
	return schema, reply.Splits, nil
}

// Schema implements hadoopfmt.InputFormat.
func (f *InputFormat) Schema() (row.Schema, error) {
	if err := f.fetch(); err != nil {
		return row.Schema{}, err
	}
	return f.schema, nil
}

// Splits implements hadoopfmt.InputFormat. The coordinator dictates the
// split count (m = n·k); the numSplits hint is ignored, exactly as the
// paper's customized getInputSplits does.
func (f *InputFormat) Splits(int) ([]hadoopfmt.InputSplit, error) {
	if err := f.fetch(); err != nil {
		return nil, err
	}
	out := make([]hadoopfmt.InputSplit, len(f.splits))
	for i, si := range f.splits {
		out[i] = &Split{Info: si, coordAddr: f.CoordAddr, job: f.Job}
	}
	return out, nil
}

// Open implements hadoopfmt.InputFormat: it starts a TCP listener for the
// split, registers it with the coordinator (step 4), and returns a reader
// that accepts the SQL worker's connection lazily.
func (f *InputFormat) Open(split hadoopfmt.InputSplit, node *cluster.Node) (hadoopfmt.RecordReader, error) {
	ssplit, ok := split.(*Split)
	if !ok {
		return nil, fmt.Errorf("stream: cannot open %T", split)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ""
	if node != nil {
		addr = node.Addr
	}
	reg, err := request(f.CoordAddr, f.dialTimeout(), 0, message{Type: "register_ml", Job: f.Job,
		Split: ssplit.Info.ID, Listen: ln.Addr().String(), Addr: addr}, "ok")
	if err != nil {
		if cerr := ln.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, err
	}
	timeout := f.AcceptTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	bufSize := f.ReceiveBufferSize
	if bufSize <= 0 {
		bufSize = 4 << 10
	}
	budget := f.ReconnectBudget
	if budget == 0 {
		budget = 2
	}
	if budget < 0 {
		budget = 0
	}
	return &streamReader{
		format:  f,
		split:   ssplit.Info.ID,
		ln:      ln,
		timeout: timeout,
		bufSize: bufSize,
		epoch:   reg.Epoch,
		budget:  budget,
	}, nil
}

// streamReader is the receiving end of one split's transfer. It moves
// whole frames only: NextColBatch is its one read loop, and Next is a row
// view over a held batch filled by it, so the consumed row count the
// resume handshake reports is always a frame boundary of the sender's
// log. A mid-stream connection failure is first absorbed in place: the
// listener stays open, the reader re-accepts, and the resume handshake
// (epoch + consumed row count) lets the sender resend exactly the frames
// this reader has not fetched, so delivery stays exactly-once. Only an
// exhausted reconnect budget (or an injected worker crash) surfaces as
// hadoopfmt.RetryableError: the consuming task then discards its partial
// rows and re-opens the split (a fresh listener + registration, bumping
// the coordinator epoch), which is the ML half of the §6 restart protocol.
type streamReader struct {
	format  *InputFormat
	split   int
	ln      net.Listener
	timeout time.Duration
	bufSize int
	epoch   uint32
	budget  int

	conn       net.Conn
	rd         *row.Reader
	types      []row.Type
	rowsRead   int
	unit       int64 // bytes per credit, the sender's BufferSize
	credited   int64
	grant      []byte // a run of creditByte, grown to the largest grant
	reconnects int
	done       bool
	failed     bool
	closed     bool

	// held is Next's batch (pooled; returned at Close) and heldPos the next
	// of its rows to serve.
	held    *row.ColBatch
	heldPos int
}

// Next implements hadoopfmt.RecordReader as a row view: it fetches a whole
// frame through NextColBatch — the frame's credit, per-row consume delay
// and injection checks all happen there — and serves its rows from the
// held batch without further I/O.
func (r *streamReader) Next() (row.Row, bool, error) {
	for r.held == nil || r.heldPos == r.held.Len() {
		if r.done || r.failed {
			return nil, false, nil
		}
		if r.held == nil {
			r.held = row.GetColBatch(nil)
		}
		if _, ok, err := r.NextColBatch(r.held); !ok {
			return nil, false, err
		}
		r.heldPos = 0
	}
	rw := r.held.RowAt(r.heldPos, nil)
	r.heldPos++
	return rw, true, nil
}

// NextColBatch implements hadoopfmt.ColBatchRecordReader: one wire frame
// per call, decoded straight into dst without ever forming a row — the
// zero-pivot path the sender's columnar encoder exists for. It is the
// reader's one read loop.
func (r *streamReader) NextColBatch(dst *row.ColBatch) (int, bool, error) {
	if r.done || r.failed {
		return 0, false, nil
	}
	if r.types == nil {
		s, err := r.format.Schema()
		if err != nil {
			return 0, false, r.fail(err)
		}
		r.types = row.SchemaTypes(s)
	}
	if r.held != nil && r.heldPos < r.held.Len() {
		// Next began this frame: hand over the rest of it, counted when
		// it was fetched.
		dst.Reset(r.types)
		for ; r.heldPos < r.held.Len(); r.heldPos++ {
			dst.AppendRow(r.held.RowAt(r.heldPos, nil))
		}
		return dst.Len(), true, nil
	}
	for {
		if r.conn == nil {
			if err := r.connect(); err != nil {
				return 0, false, r.fail(err)
			}
		}
		n, err := r.rd.ReadColBatch(dst, r.types)
		if err == io.EOF {
			return 0, false, r.finish()
		}
		if err != nil {
			if rerr := r.reconnect(fmt.Errorf("stream: split %d read: %w", r.split, err)); rerr != nil {
				return 0, false, r.fail(rerr)
			}
			continue
		}
		// The slow-consumer delay is per row but slept once per frame, for
		// all of its rows: a short sleep costs far more than asked for, so
		// one per row would run the consumer slower than configured. The
		// frame's credits follow the delay; the §6 failure injection is a
		// per-row contract, run as the frame is fetched. A row is counted
		// before it reaches the task, and the count is what the resume
		// handshake reports — so a failure after the count must escalate to
		// task re-execution (which discards the batch, like every partial
		// row) rather than a resume (which would skip the counted but
		// undelivered rows).
		if r.format.ConsumeDelay > 0 {
			time.Sleep(time.Duration(n) * r.format.ConsumeDelay)
		}
		if err := r.grantCredits(); err != nil {
			return 0, false, r.fail(err)
		}
		for i := 0; i < n; i++ {
			r.rowsRead++
			if inject := r.format.Inject; inject != nil && inject(r.split, r.rowsRead) {
				return 0, false, r.fail(fmt.Errorf("stream: split %d: injected ML worker failure", r.split))
			}
		}
		return n, true, nil
	}
}

// finish acknowledges a clean end of stream.
func (r *streamReader) finish() error {
	r.done = true
	if err := r.conn.SetWriteDeadline(time.Now().Add(r.timeout)); err != nil {
		return r.fail(fmt.Errorf("stream: ack deadline: %w", err))
	}
	if _, werr := r.conn.Write([]byte{ackByte}); werr != nil {
		return r.fail(fmt.Errorf("stream: ack write: %w", werr))
	}
	return r.Close()
}

// grantCredits implements the reader's half of flow control: one credit
// per unit of consumed bytes, run once per fetched frame and written in
// one Write. Credits flow only after rows have been consumed (including
// the injected delay), which is what makes a slow ML worker backpressure —
// and eventually spill — the SQL-side sender. A block frame's bytes enter
// the reader's consumed counter only once the frame has been fetched
// whole, so buffered-but-unfetched blocks grant nothing. Each credit
// accounts exactly unit bytes (the remainder carries over);
// acknowledging "everything so far" instead would leak phantom in-flight
// bytes on the sender until its window jammed shut.
func (r *streamReader) grantCredits() error {
	due := int((r.rd.Bytes() - r.credited) / r.unit)
	if due == 0 {
		return nil
	}
	r.credited += int64(due) * r.unit
	if len(r.grant) < due {
		r.grant = bytes.Repeat([]byte{creditByte}, due)
	}
	if err := r.conn.SetWriteDeadline(time.Now().Add(r.timeout)); err != nil {
		return fmt.Errorf("stream: credit deadline: %w", err)
	}
	if _, err := r.conn.Write(r.grant[:due]); err != nil {
		return fmt.Errorf("stream: credit write: %w", err)
	}
	return nil
}

// connect accepts one data connection, waiting at most the reader's
// timeout, and runs the reader side of the resume handshake on it.
func (r *streamReader) connect() error {
	if err := r.ln.(*net.TCPListener).SetDeadline(time.Now().Add(r.timeout)); err != nil {
		return err
	}
	conn, err := r.ln.Accept()
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		err = fmt.Errorf("stream: split %d: no connection within %v", r.split, r.timeout)
		if cerr := r.ln.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
	}
	if err != nil {
		return err
	}
	r.conn = conn
	return r.handshake()
}

// handshake sends the resume header (epoch + rows consumed) and reads the
// sender's start row and credit unit, after which the connection carries
// frames. Both sides are frame-aligned — this reader counts whole frames,
// the sender resends whole log frames — so the only well-formed start row
// is exactly the consumed count; anything else is a protocol violation.
// The unit divides the reader's byte count, so it must be positive, and
// no send buffer exceeds a block frame's bound.
func (r *streamReader) handshake() error {
	r.credited = 0
	var hdr [14]byte
	binary.BigEndian.PutUint16(hdr[:2], resumeMagic)
	binary.BigEndian.PutUint32(hdr[2:6], r.epoch)
	binary.BigEndian.PutUint64(hdr[6:14], uint64(r.rowsRead))
	if err := r.conn.SetWriteDeadline(time.Now().Add(r.timeout)); err != nil {
		return err
	}
	if _, err := r.conn.Write(hdr[:]); err != nil {
		return fmt.Errorf("stream: split %d resume header: %w", r.split, err)
	}
	if err := r.conn.SetReadDeadline(time.Now().Add(r.timeout)); err != nil {
		return err
	}
	br := bufio.NewReaderSize(r.conn, r.bufSize)
	var ack [12]byte
	if _, err := io.ReadFull(br, ack[:]); err != nil {
		return fmt.Errorf("stream: split %d resume ack: %w", r.split, err)
	}
	if startRow := binary.BigEndian.Uint64(ack[:8]); startRow != uint64(r.rowsRead) {
		return fmt.Errorf("stream: split %d: sender resumes at row %d, reader consumed %d", r.split, startRow, r.rowsRead)
	}
	unit := binary.BigEndian.Uint32(ack[8:])
	if unit == 0 || unit > row.MaxBlockSize {
		return fmt.Errorf("stream: split %d: credit unit %d outside [1, %d]", r.split, unit, row.MaxBlockSize)
	}
	r.unit = int64(unit)
	if err := r.conn.SetReadDeadline(time.Time{}); err != nil {
		return err
	}
	r.rd = row.NewReader(br)
	r.rd.RequireEOS()
	return nil
}

// reconnect re-accepts on the still-open listener after a mid-stream
// connection failure. It returns nil when a resumed connection is live
// again; otherwise the original cause (or the last attempt's failure) for
// the caller to escalate.
func (r *streamReader) reconnect(cause error) error {
	for attempt := 0; attempt < r.budget; attempt++ {
		if r.conn != nil {
			//lint:allow errdiscard the connection already failed; its close outcome cannot matter
			r.conn.Close()
			r.conn, r.rd = nil, nil
		}
		r.reconnects++
		if err := r.connect(); err != nil {
			cause = err
			continue
		}
		return nil
	}
	return cause
}

// fail closes everything abruptly (no ACK) and wraps the error as
// retryable so the task layer re-executes the split.
func (r *streamReader) fail(err error) error {
	r.failed = true
	// Best-effort teardown: the split is already failing with err, and the
	// retry layer matches on that error, so close noise is dropped.
	_ = r.Close()
	return &hadoopfmt.RetryableError{Err: err}
}

// Close implements hadoopfmt.RecordReader. It is idempotent: finish and
// the task layer's teardown both call it, and only the first close's
// outcome is meaningful.
func (r *streamReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	row.PutColBatch(r.held)
	r.held = nil
	var err error
	if r.conn != nil {
		err = r.conn.Close()
	}
	return errors.Join(err, r.ln.Close())
}

package stream

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"sqlml/internal/cluster"
	"sqlml/internal/row"
	"sqlml/internal/sqlengine"
)

// SenderConfig tunes the SQL-side streaming sender.
type SenderConfig struct {
	// BufferSize is the per-target send buffer in bytes (the paper's
	// experiments use 4 KB).
	BufferSize int
	// QueueBytes is the byte budget of each target slot's unsent frames in
	// memory. A frame that would push them past it goes to the slot's spill
	// file instead — the paper's producer/consumer synchronization for a
	// slow ML worker: the producer never waits, and a spill frees memory.
	// Frames already sent stay in memory until the reader acknowledges the
	// slot, for the §6 replay.
	QueueBytes int
	// BlockRows bounds one block frame: the sender flushes a slot's block
	// when it reaches BlockRows rows or row.BlockTargetBytes encoded bytes
	// (and at end of stream). It defaults to the engine's batch granularity
	// (~1024 rows).
	BlockRows int
	// SpillDir is where spill files go (defaults to the OS temp dir).
	SpillDir string
	// MaxRestarts bounds §6 restart attempts.
	MaxRestarts int
	// DialTimeout bounds connection establishment to ML workers.
	DialTimeout time.Duration
	// ReconnectBudget bounds per-target reconnect attempts: when a single
	// data connection fails mid-stream, the sender redials that target and
	// resumes from the slot's log (skipping rows the reader already
	// consumed, per the resume handshake) instead of restarting the whole
	// group. Only when the budget is exhausted does the failure escalate to
	// the §6 restart. 0 means the default; negative disables per-target
	// recovery (every failure escalates, the paper's original behavior).
	ReconnectBudget int
	// Dial, when set, replaces net.DialTimeout for data-channel dials to ML
	// workers — the fault-injection seam. Coordinator control connections
	// always use the real dialer: faulting those would turn every scripted
	// data-channel fault into a registration failure and mask the recovery
	// path under test.
	Dial func(network, addr string, timeout time.Duration) (net.Conn, error)
	// DisableCompression turns off the per-column lightweight encodings of
	// the wire frames: blocks still ship column-major, but every vector is
	// written raw. Compression is on by default; the knob exists for the
	// ablation grid and for debugging wire captures.
	DisableCompression bool
}

// DefaultSenderConfig mirrors the paper's settings.
func DefaultSenderConfig() SenderConfig {
	return SenderConfig{
		BufferSize:      4 << 10,
		QueueBytes:      64 * row.BlockTargetBytes,
		BlockRows:       row.BlockTargetRows,
		MaxRestarts:     5,
		DialTimeout:     10 * time.Second,
		ReconnectBudget: 4,
	}
}

const (
	// reconnectBackoff is the base delay between reconnect attempts; each
	// attempt doubles it (capped) and adds deterministic jitter.
	reconnectBackoff = 10 * time.Millisecond
	// heartbeatInterval is how often the sender renews its coordinator
	// lease while streaming, so a coordinator with LeaseDuration armed can
	// tell a hung worker from a busy one.
	heartbeatInterval = time.Second
)

// SenderStats summarises one worker's transfer, and is the output row of
// the sender UDF.
type SenderStats struct {
	Worker       int
	RowsSent     int64
	BytesSent    int64
	SpilledBytes int64
	Restarts     int
	// FramesSent counts wire frames, i.e. blocks: FramesSent ≪ RowsSent is
	// the observable signature of coalescing (FramesSent == RowsSent is
	// what a BlockRows of 1 degenerates to).
	FramesSent int64
	// Reconnects counts per-target reconnections that resumed from the
	// slot's log without a §6 group restart: Reconnects > 0 with
	// Restarts == 0 is the signature of partial-failure recovery.
	Reconnects int
	// RawBytes is what the delivered rows would have cost as blocks of
	// row-encoded rows (row.BlockEncoder.RawBytes); WireBytes is what the
	// columnar frames actually cost. RawBytes/WireBytes is the observable
	// compression ratio: above 1.0 when the per-column encodings bite,
	// slightly below it for data they cannot shrink.
	RawBytes  int64
	WireBytes int64
}

// statsSchema is the sender UDF's output schema.
func statsSchema() row.Schema {
	return row.MustSchema(
		row.Column{Name: "worker", Type: row.TypeInt},
		row.Column{Name: "rows_sent", Type: row.TypeInt},
		row.Column{Name: "bytes_sent", Type: row.TypeInt},
		row.Column{Name: "spilled_bytes", Type: row.TypeInt},
		row.Column{Name: "restarts", Type: row.TypeInt},
		row.Column{Name: "frames_sent", Type: row.TypeInt},
		row.Column{Name: "reconnects", Type: row.TypeInt},
		row.Column{Name: "raw_bytes", Type: row.TypeInt},
		row.Column{Name: "wire_bytes", Type: row.TypeInt},
	)
}

// RegisterSenderUDF installs the parallel table UDF "stream_send" into the
// engine. Invoked as
//
//	SELECT * FROM TABLE(stream_send(T, 'coord-addr', 'job', 'command', k))
//
// each SQL worker registers with the coordinator, waits for its matched ML
// workers, and streams its local partition to them round-robin, staging
// wire blocks straight from the input batches' vectors. The UDF emits one
// summary row per worker.
func RegisterSenderUDF(e *sqlengine.Engine, cfg SenderConfig) error {
	outTypes := row.SchemaTypes(statsSchema())
	return e.Registry().RegisterTable(&sqlengine.TableUDF{
		Name:         "stream_send",
		PerPartition: true,
		OutSchema: func(in row.Schema, args []row.Value) (row.Schema, error) {
			if len(args) < 3 || len(args) > 4 {
				return row.Schema{}, fmt.Errorf("usage: stream_send(T, 'coord', 'job', 'command'[, k])")
			}
			if in.Len() == 0 {
				return row.Schema{}, fmt.Errorf("stream_send requires a table argument")
			}
			return statsSchema(), nil
		},
		Fn: func(ctx *sqlengine.UDFContext, in sqlengine.ColBatchSource, args []row.Value, emit func(*row.ColBatch) error) error {
			coordAddr := args[0].AsString()
			job := args[1].AsString()
			command := args[2].AsString()
			k := 1
			if len(args) == 4 {
				k = int(args[3].AsInt())
			}
			// The input is handed straight to the sender: batches go onto
			// the wire as the upstream pipeline produces them, so the query,
			// transformation, and transfer overlap (the paper's Figure 2
			// insql+stream path).
			stats, err := Send(SendRequest{
				CoordAddr:  coordAddr,
				Job:        job,
				Command:    command,
				Worker:     ctx.Partition,
				NumWorkers: ctx.NumPartitions,
				K:          k,
				Node:       ctx.Node,
				Cost:       ctx.Engine.Cost(),
				Topo:       ctx.Engine.Topology(),
				Schema:     ctx.InSchema,
				Input:      in,
				Config:     cfg,
			})
			if err != nil {
				return err
			}
			out := row.NewColBatchCap(outTypes, 1, nil)
			out.AppendRow(row.Row{
				row.Int(int64(stats.Worker)),
				row.Int(stats.RowsSent),
				row.Int(stats.BytesSent),
				row.Int(stats.SpilledBytes),
				row.Int(int64(stats.Restarts)),
				row.Int(stats.FramesSent),
				row.Int(int64(stats.Reconnects)),
				row.Int(stats.RawBytes),
				row.Int(stats.WireBytes),
			})
			return emit(out)
		},
	})
}

// SendRequest carries everything one SQL worker needs to stream its
// partition. The partition arrives either as a streaming Input of column
// batches (they hit the wire as they are produced) or as pre-materialized
// Rows, which Send transposes into batches of DefaultBatchSize rows; Input
// wins when both are set. The sender reads Input to its end but does not
// close it: that stays with whoever opened it.
type SendRequest struct {
	CoordAddr  string
	Job        string
	Command    string
	Args       []string
	Worker     int
	NumWorkers int
	K          int
	Node       *cluster.Node
	Topo       *cluster.Topology
	Cost       *cluster.CostModel
	Schema     row.Schema
	Input      sqlengine.ColBatchSource
	Rows       []row.Row
	Config     SenderConfig
}

// slot is the state machine of one target slot: split worker·k + j, the
// coordinator's registration for it, its frame log, the channel of the
// current connection (nil between connections), and whether the reader
// has acknowledged the split. Its transitions are connect → finish; a
// slot whose finish fails reconnects (connect and finish again within
// ReconnectBudget) and, once the budget is spent, escalates by returning
// the error to Send's §6 restart loop.
type slot struct {
	split  int
	target Target
	log    frameLog
	ch     *targetChannel
	done   bool
}

// sender is one SQL worker's transfer across §6 restart attempts. The
// streaming input is consumed exactly once — by the first attempt that
// connects, or drained into the logs by one that cannot — and the slots
// carry each split's log and delivery state from attempt to attempt, so a
// retry resends only the unacknowledged slots, never re-encoding.
type sender struct {
	req   SendRequest
	cfg   SenderConfig
	stats SenderStats
	input sqlengine.ColBatchSource // nil once consumed
	slots []*slot                  // nil until the first match set fixes k
}

// fatalError marks a failure no restart can recover from: the streaming
// input itself failed.
type fatalError struct{ err error }

func (f *fatalError) Error() string { return f.err.Error() }
func (f *fatalError) Unwrap() error { return f.err }

// Send runs the full sender protocol for one SQL worker: register (step 1),
// await matches (step 6), connect (step 7), stream round-robin (step 8).
//
// Failure handling refines §6's restart into per-split resume: rows are
// assigned to split slots deterministically (row i → slot i mod k), each
// slot's delivery is confirmed by an end-of-stream ACK, and a retry attempt
// resends only the unconfirmed slots (from their encoded-frame logs) —
// failed ML tasks re-register fresh listeners, completed ones are never
// re-run, and every row is delivered exactly once.
func Send(req SendRequest) (*SenderStats, error) {
	cfg := req.Config
	if cfg.BufferSize <= 0 {
		cfg.BufferSize = DefaultSenderConfig().BufferSize
	}
	if cfg.QueueBytes <= 0 {
		cfg.QueueBytes = DefaultSenderConfig().QueueBytes
	}
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = DefaultSenderConfig().MaxRestarts
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultSenderConfig().DialTimeout
	}
	if cfg.BlockRows <= 0 {
		cfg.BlockRows = DefaultSenderConfig().BlockRows
	}
	if cfg.ReconnectBudget == 0 {
		cfg.ReconnectBudget = DefaultSenderConfig().ReconnectBudget
	}
	s := &sender{req: req, cfg: cfg, stats: SenderStats{Worker: req.Worker}, input: req.Input}
	if s.input == nil {
		rows := sqlengine.NewRowSource(req.Rows, row.SchemaTypes(req.Schema))
		defer rows.Close()
		s.input = rows
	}
	var err error
	for attempt := 0; attempt <= cfg.MaxRestarts; attempt++ {
		if attempt > 0 {
			s.stats.Restarts++
			// Give failed ML tasks a moment to re-execute and re-register.
			time.Sleep(time.Duration(20*attempt) * time.Millisecond)
		}
		if err = s.sendOnce(); err == nil {
			break
		}
		var fe *fatalError
		if errors.As(err, &fe) {
			break
		}
	}
	if err != nil {
		err = fmt.Errorf("stream: worker %d: transfer failed after %d restarts: %w", req.Worker, s.stats.Restarts, err)
	}
	// No channel outlives sendOnce: release every log, removing its spill
	// file whatever the outcome.
	for _, sl := range s.slots {
		s.stats.SpilledBytes += sl.log.spilled
		err = errors.Join(err, sl.log.release())
	}
	if err != nil {
		return nil, err
	}
	return &s.stats, nil
}

// sendOnce performs one attempt: register and await matches, renew the
// lease while streaming, connect every slot not yet acknowledged, stream,
// then finish each slot and reconnect the ones whose channel failed. It
// returns nil once every slot is done.
func (s *sender) sendOnce() error {
	req, cfg := s.req, s.cfg
	coord, err := net.DialTimeout("tcp", req.CoordAddr, cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("stream: dial coordinator: %w", err)
	}
	//lint:allow errdiscard control-connection teardown is best-effort; delivery is confirmed by the data-channel ACK, not this Close
	defer coord.Close()
	enc := json.NewEncoder(coord)
	if err := enc.Encode(message{
		Type:       "register_sql",
		Job:        req.Job,
		Worker:     req.Worker,
		NumWorkers: req.NumWorkers,
		Addr:       nodeAddr(req.Node),
		Schema:     req.Schema.String(),
		Command:    req.Command,
		Args:       req.Args,
		K:          req.K,
	}); err != nil {
		return fmt.Errorf("stream: register: %w", err)
	}
	if err := coord.SetReadDeadline(time.Now().Add(cfg.DialTimeout)); err != nil {
		return fmt.Errorf("stream: set coordinator deadline: %w", err)
	}
	reply, err := readMessage(bufio.NewReader(coord))
	if err != nil {
		return fmt.Errorf("stream: awaiting matches: %w", err)
	}
	if reply.Type != "matches" {
		return fmt.Errorf("stream: unexpected coordinator reply %q: %s", reply.Type, reply.Error)
	}

	// Renew the coordinator lease while this attempt streams: the parked
	// registration connection doubles as the heartbeat channel, so a
	// coordinator with leases armed can tell this worker is alive even when
	// a stalled data connection keeps it silent for a long time. Nothing
	// else writes to coord once the matches arrived.
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		tick := time.NewTicker(heartbeatInterval)
		defer tick.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-tick.C:
				if err := enc.Encode(message{Type: "heartbeat", Job: req.Job, Worker: req.Worker}); err != nil {
					return
				}
			}
		}
	}()
	defer func() { close(hbStop); <-hbDone }()
	if len(reply.Targets) == 0 {
		return fmt.Errorf("stream: empty match set")
	}

	// Step 7: connect every slot not yet acknowledged. The resume handshake
	// on each connection reports how many rows the reader already consumed:
	// 0 from a fresh reader, more from one that survived a §6 restart and
	// re-accepted.
	err = s.match(reply.Targets)
	for _, sl := range s.slots {
		if err == nil && !sl.done {
			err = sl.connect(req, cfg)
		}
	}
	if err != nil {
		s.abortAll()
		if s.input != nil {
			// The upstream pipeline is one-shot: drain it into the logs now
			// so the retry attempt has the rows.
			if ierr := s.consumeInput(); ierr != nil {
				return &fatalError{ierr}
			}
		}
		return err
	}

	// Step 8: stream. Each channel's writer sends its slot's log from the
	// resume point on: the first attempt's as the input appends to it, a
	// retry's as it stands.
	if s.input != nil {
		if err := s.consumeInput(); err != nil {
			// The pipeline feeding the sender failed: unsent rows are gone,
			// no restart can recover them.
			s.abortAll()
			return &fatalError{err}
		}
	}

	// Await every channel's ACK before any recovery: the ACK handshake
	// makes delivery failures deterministic even when the OS buffered the
	// final bytes, and a healthy slot's reader must not wait out another
	// slot's backoff for its end of stream.
	for _, sl := range s.slots {
		if sl.ch != nil {
			if ferr := sl.finish(&s.stats); ferr != nil && err == nil {
				err = ferr
			}
		}
	}
	if err == nil || cfg.ReconnectBudget <= 0 {
		return err
	}
	// Per-target recovery absorbs a broken connection without touching
	// the healthy slots or re-running any reader; only an exhausted budget
	// escalates.
	err = nil
	for _, sl := range s.slots {
		if !sl.done {
			if rerr := sl.reconnect(s); rerr != nil {
				err = rerr
			}
		}
	}
	return err
}

// match binds an attempt's match set to the slots. Slot j is split
// worker·k + j in every attempt, so the row → slot assignment is stable.
func (s *sender) match(targets []Target) error {
	k := len(targets)
	if s.slots == nil {
		s.slots = make([]*slot, k)
		for j := range s.slots {
			s.slots[j] = &slot{split: s.req.Worker*k + j, log: frameLog{
				budget: s.cfg.QueueBytes,
				dir:    s.cfg.SpillDir,
				cost:   s.req.Cost,
				node:   s.req.Node,
			}}
		}
	}
	bySplit := make(map[int]Target, k)
	for _, t := range targets {
		bySplit[t.Split] = t
	}
	for _, sl := range s.slots {
		if sl.done {
			continue
		}
		t, ok := bySplit[sl.split]
		if !ok {
			return fmt.Errorf("stream: coordinator match set missing split %d", sl.split)
		}
		sl.target = t
	}
	return nil
}

// abortAll tears down every live channel without waiting for delivery:
// closing the connection unblocks a writer stuck in a write or a credit
// wait, and closing stop one waiting on the log. Delivery already failed
// or cannot start, so how the connection closes cannot matter.
func (s *sender) abortAll() {
	for _, sl := range s.slots {
		if ch := sl.ch; ch != nil {
			_ = ch.conn.Close()
			close(ch.stop)
			<-ch.done
			sl.ch = nil
		}
	}
}

// connect dials the slot's target and runs the sender side of the resume
// handshake. It moves the log's cursor to the frame holding the first row
// the reader has not consumed — frame 0 for a fresh reader — and starts
// the channel's writer there; the channel owns the connection.
func (sl *slot) connect(req SendRequest, cfg SenderConfig) error {
	t := sl.target
	dial := cfg.Dial
	if dial == nil {
		dial = net.DialTimeout
	}
	conn, err := dial("tcp", t.Listen, cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("stream: dial ml worker %s: %w", t.Listen, err)
	}
	fail := func(err error) error {
		if cerr := conn.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return err
	}
	epoch, consumed, err := readResumeHeader(conn, cfg.DialTimeout)
	if err != nil {
		return fail(fmt.Errorf("stream: ml worker %s: %w", t.Listen, err))
	}
	if t.Epoch != 0 && epoch != t.Epoch {
		return fail(fmt.Errorf("stream: ml worker %s: %w (reader epoch %d, matched epoch %d)",
			t.Listen, errStaleEpoch, epoch, t.Epoch))
	}
	startRow, ok := sl.log.rewind(consumed)
	if !ok {
		return fail(fmt.Errorf("stream: ml worker %s: consumed %d rows beyond the log", t.Listen, consumed))
	}
	tc := &targetChannel{
		conn:    conn,
		w:       bufio.NewWriterSize(conn, cfg.BufferSize),
		log:     &sl.log,
		stop:    make(chan struct{}),
		done:    make(chan error, 1),
		credits: make(chan int, 1024),
		acks:    make(chan error, 1),
		cfg:     cfg,
		target:  t,
		cost:    req.Cost,
	}
	tc.fromNode = req.Node
	if req.Topo != nil {
		tc.toNode = req.Topo.ByAddr(t.Addr)
	}
	var ack [12]byte
	binary.BigEndian.PutUint64(ack[:8], startRow)
	binary.BigEndian.PutUint32(ack[8:], uint32(cfg.BufferSize))
	if _, err := tc.w.Write(ack[:]); err != nil {
		return fail(err)
	}
	go tc.creditLoop()
	go func() { tc.done <- tc.run() }()
	sl.ch = tc
	return nil
}

// finish waits for the channel's writer — the reader's ACK or the failure
// that prevented it — and closes the connection, joining a close failure
// into the result. An ACK marks the slot done, credits its whole log to the
// stats and releases the log.
func (sl *slot) finish(stats *SenderStats) error {
	ch := sl.ch
	sl.ch = nil
	err := <-ch.done
	if err = errors.Join(err, ch.conn.Close()); err != nil {
		return err
	}
	sl.done = true
	sl.log.credit(stats)
	// A release failure is kept by the log and reported when Send releases
	// every log; the slot itself is delivered.
	_ = sl.log.release()
	return nil
}

// reconnect redials a failed slot until it is delivered and acknowledged
// or the reconnect budget runs out. Each attempt backs off, re-queries the
// coordinator for the split's latest registration — a reader that crashed
// and re-executed has a fresh listener and epoch there — then connects and
// finishes.
func (sl *slot) reconnect(s *sender) error {
	var lastErr error
	for attempt := 0; attempt < s.cfg.ReconnectBudget; attempt++ {
		time.Sleep(backoffDelay(reconnectBackoff, attempt, s.req.Worker, sl.split))
		if t, err := getTarget(s.req.CoordAddr, s.cfg.DialTimeout, s.req.Job, sl.split); err == nil {
			sl.target = t
		}
		if err := sl.connect(s.req, s.cfg); err != nil {
			lastErr = err
			continue
		}
		s.stats.Reconnects++
		if err := sl.finish(&s.stats); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("stream: split %d: no reconnect attempts allowed", sl.split)
	}
	return fmt.Errorf("stream: split %d: reconnect budget (%d) exhausted: %w", sl.split, s.cfg.ReconnectBudget, lastErr)
}

// backoffDelay is the capped exponential backoff between reconnect
// attempts, plus jitter in [0, delay). The jitter derives from (worker,
// split, attempt) through a splitmix64 step instead of a shared PRNG:
// concurrent recoveries decorrelate, and a given failure replays with
// identical timing.
func backoffDelay(base time.Duration, attempt, worker, split int) time.Duration {
	const maxBackoff = 500 * time.Millisecond
	d := base
	for i := 0; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	z := uint64(worker+1)*0x9E3779B97F4A7C15 + uint64(split+1)<<21 + uint64(attempt+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return d + time.Duration(z%uint64(d))
}

// getTarget asks the coordinator for a split's latest registration (the
// sender's mid-stream refresh; see handleGetTarget).
func getTarget(coordAddr string, timeout time.Duration, job string, split int) (Target, error) {
	reply, err := request(coordAddr, timeout, timeout, message{Type: "get_target", Job: job, Split: split}, "target")
	if err != nil {
		return Target{}, err
	}
	if len(reply.Targets) != 1 {
		return Target{}, fmt.Errorf("stream: get_target failed: %s", reply.Error)
	}
	return reply.Targets[0], nil
}

// consumeInput drains the streaming input exactly once, packing each
// slot's rows into block frames built on pooled buffers and appending each
// finished block to the slot's log, whose live writer (if any — a dial
// failure means this attempt only logs) sends it. Rows are assigned
// round-robin (row i → slot i mod k) straight off the batches' vectors:
// each batch's live positions are dealt into k lists once, and each list
// is staged with one gather per column. A slot's block flushes after the
// row that reaches the row/byte budget, and at end of stream, so log
// entries and wire writes are O(blocks), not O(rows). The input is
// consumed afterwards, and every log is sealed.
func (s *sender) consumeInput() error {
	in := s.input
	s.input = nil
	k := len(s.slots)
	// Every slot's encoder stages column-major and Finish emits a columnar
	// frame with per-column encodings. The flush budget is counted in
	// row-encoded bytes (RawBytes), so it does not move with how well a
	// block happens to compress.
	types := row.SchemaTypes(s.req.Schema)
	encoders := make([]row.BlockEncoder, k)
	for j := range encoders {
		encoders[j].EnableColumnar(types, !s.cfg.DisableCompression)
	}
	// flush seals slot j's block into its log, which copies it, and
	// returns the pooled buffer.
	flush := func(j int) error {
		enc := &encoders[j]
		rows, raw := int64(enc.Rows()), int64(enc.RawBytes())
		frame := enc.Finish()
		if frame == nil {
			return nil
		}
		err := s.slots[j].log.append(frame, rows, raw)
		row.RecycleBlockBuffer(frame)
		return err
	}
	// lists[j] holds the current batch's positions bound for slot j, and
	// prices their RawBytes prices; both are reused across batches.
	lists := make([][]int32, k)
	var prices []int
	next := 0 // the slot of the next row: the row counter, mod k
	for {
		b, ok, err := in.NextCol()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for j := range lists {
			lists[j] = lists[j][:0]
		}
		for si, n := 0, b.Len(); si < n; si++ {
			lists[next] = append(lists[next], int32(b.SelPos(si)))
			if next++; next == k {
				next = 0
			}
		}
		for j, pos := range lists {
			enc := &encoders[j]
			prices = row.PriceRows(prices[:0], b, pos)
			for off := 0; off < len(pos); {
				off += enc.AppendRows(b, pos[off:], prices[off:], s.cfg.BlockRows, row.BlockTargetBytes)
				if enc.Rows() >= s.cfg.BlockRows || enc.RawBytes() >= row.BlockTargetBytes {
					if err := flush(j); err != nil {
						return err
					}
				}
			}
		}
	}
	// End of stream: flush every slot's partial block and seal its log.
	for j, sl := range s.slots {
		if err := flush(j); err != nil {
			return err
		}
		sl.log.seal()
	}
	return nil
}

func nodeAddr(n *cluster.Node) string {
	if n == nil {
		return ""
	}
	return n.Addr
}

// targetChannel is the per-ML-worker send path: a writer goroutine that
// sends its slot's log through the log's cursor into a buffered socket.
// Closing stop makes a writer waiting on the log give up.
type targetChannel struct {
	conn   net.Conn
	w      *bufio.Writer
	log    *frameLog
	stop   chan struct{}
	done   chan error
	cfg    SenderConfig
	target Target

	// cost charging endpoints (simulated addresses).
	cost     *cluster.CostModel
	fromNode *cluster.Node
	toNode   *cluster.Node

	// credits carries receiver flow-control grants (bytes per credit);
	// acks delivers the final end-of-stream acknowledgement (or the
	// connection error that prevented it).
	credits chan int
	acks    chan error

	// pending counts bytes written since the last flush, inflight bytes
	// the reader has not credited yet; the writer goroutine owns both.
	pending  int
	inflight int
}

// resumeMagic opens the reader→sender resume header on every data
// connection: magic(2) epoch(4) rowsConsumed(8), big-endian. The sender
// answers with startRow(8) — the first row of the first frame it will
// (re)send — and its credit unit(4), the BufferSize bytes one credit byte
// stands for, then frames. On a fresh connection both offsets are zero and
// the handshake degenerates to the original protocol plus 26 bytes.
const resumeMagic = 0x534C // "SL"

// errStaleEpoch marks a handshake against a reader from a different
// registration generation than the sender's target info; the recovery loop
// refreshes via get_target and redials.
var errStaleEpoch = errors.New("stream: stale target epoch")

// errAborted is the abort cause of channels torn down wholesale, when an
// attempt fails before or while streaming.
var errAborted = errors.New("stream: channel aborted")

// readResumeHeader reads the reader's resume header off a fresh data
// connection.
func readResumeHeader(conn net.Conn, timeout time.Duration) (epoch uint32, consumed uint64, err error) {
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return 0, 0, err
	}
	var hdr [14]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("resume header: %w", err)
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return 0, 0, err
	}
	if m := binary.BigEndian.Uint16(hdr[:2]); m != resumeMagic {
		return 0, 0, fmt.Errorf("bad resume magic %#x", m)
	}
	return binary.BigEndian.Uint32(hdr[2:6]), binary.BigEndian.Uint64(hdr[6:14]), nil
}

// creditLoop reads flow-control bytes from the receiver: one credit byte
// per BufferSize bytes consumed, and the final delivery ACK. It closes the
// credit channel when the connection drops, unblocking a stalled writer.
func (tc *targetChannel) creditLoop() {
	defer close(tc.credits)
	buf := make([]byte, 256)
	for {
		n, err := tc.conn.Read(buf)
		for i := 0; i < n; i++ {
			switch buf[i] {
			case creditByte:
				select {
				case tc.credits <- tc.cfg.BufferSize:
				default: // writer far behind on credits; drop is safe
				}
			case ackByte:
				tc.acks <- nil
				return
			}
		}
		if err != nil {
			tc.acks <- fmt.Errorf("stream: no ack from %s: %w", tc.target.Listen, err)
			return
		}
	}
}

// run is the channel's writer: it sends the log's frames from the cursor
// on, as the producer appends them, and once the sealed log is sent it
// ends the stream and waits for the reader's ACK.
func (tc *targetChannel) run() error {
	for {
		frame, err := tc.log.next(tc.stop)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := tc.send(frame); err != nil {
			return err
		}
	}
	// The explicit end-of-stream frame: without it a reader could mistake a
	// connection that died exactly on a frame boundary for completion and
	// commit a truncated split.
	if err := row.WriteEOS(tc.w); err != nil {
		return err
	}
	if err := tc.flush(); err != nil {
		return err
	}
	// Half-close the write side so the reader observes a clean end of
	// stream while the connection stays readable for credits and the ACK.
	if cw, ok := tc.conn.(interface{ CloseWrite() error }); ok {
		if err := cw.CloseWrite(); err != nil {
			return err
		}
	}
	// The creditLoop delivers the reader's final acknowledgement.
	select {
	case err := <-tc.acks:
		return err
	case <-time.After(tc.cfg.DialTimeout):
		return fmt.Errorf("stream: ack timeout from %s", tc.target.Listen)
	}
}

// send writes one frame under credit-based flow control — the writer keeps
// at most one send buffer plus one receive buffer of unconsumed bytes in
// flight, so a slow consumer backpressures the writer, and the frames it
// has not reached pile up in the log until they spill — and flushes once a
// send buffer's worth is pending.
func (tc *targetChannel) send(frame []byte) error {
	// Wait for credits while a full window is in flight. Everything
	// buffered locally must be flushed first — the reader can only grant
	// credits for bytes it can actually see. A frame is written whole once
	// there is *any* window room (not only when it fits entirely): a block
	// frame can exceed the window on its own, and since the receiver
	// credits a frame only once it has consumed all of it, requiring the
	// whole frame to fit would deadlock. In-flight bytes stay bounded by
	// one window plus one frame.
	window := 2 * tc.cfg.BufferSize
	if tc.inflight >= window {
		if err := tc.flush(); err != nil {
			return err
		}
	}
	for tc.inflight >= window {
		credit, ok := <-tc.credits
		if !ok {
			return fmt.Errorf("stream: receiver %s gone", tc.target.Listen)
		}
		tc.inflight = max(tc.inflight-credit, 0)
	}
	tc.inflight += len(frame)
	if _, err := tc.w.Write(frame); err != nil {
		return err
	}
	tc.pending += len(frame)
	if tc.pending >= tc.cfg.BufferSize {
		return tc.flush()
	}
	return nil
}

// flush pushes the buffered bytes to the socket and charges the frames
// among them to the network as one transfer: ChargeNet pays NetLatency
// per call, so the flushed buffer, not the frame, is the unit of network
// cost.
func (tc *targetChannel) flush() error {
	if err := tc.w.Flush(); err != nil {
		return err
	}
	if tc.pending > 0 && tc.cost != nil && tc.fromNode != nil && tc.toNode != nil {
		tc.cost.ChargeNet(tc.fromNode, tc.toNode, tc.pending)
	}
	tc.pending = 0
	return nil
}

// ackByte is the end-of-stream acknowledgement the ML reader returns;
// creditByte is its flow-control grant (one per consumed receive buffer).
const (
	ackByte    = 0x06
	creditByte = 0x07
)

package stream

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
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
	// QueueFrames bounds the in-flight frame queue per target; when it is
	// full (a slow consumer), frames spill to a local disk file to keep
	// the producer running — the paper's producer/consumer synchronization.
	// One frame is one block (~BlockRows rows), so the queue bounds
	// O(blocks), not O(rows), of sender memory.
	QueueFrames int
	// BlockRows bounds one block frame: the sender flushes a slot's block
	// when it reaches BlockRows rows or row.BlockTargetBytes encoded bytes
	// (and at end of stream). It defaults to the engine's batch granularity
	// (~1024 rows).
	BlockRows int
	// SpillWait is how long a full queue may block the producer before it
	// spills to disk; a fast consumer frees buffer space well within it.
	SpillWait time.Duration
	// SpillDir is where spill files go (defaults to the OS temp dir).
	SpillDir string
	// MaxRestarts bounds §6 restart attempts.
	MaxRestarts int
	// DialTimeout bounds connection establishment to ML workers.
	DialTimeout time.Duration
	// ReconnectBudget bounds per-target reconnect attempts: when a single
	// data connection fails mid-stream, the sender redials that target and
	// resumes from the spill spool (skipping rows the reader already
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
		QueueFrames:     64,
		BlockRows:       row.BlockTargetRows,
		SpillWait:       5 * time.Millisecond,
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
	// spool without a §6 group restart: Reconnects > 0 with Restarts == 0
	// is the signature of partial-failure recovery.
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

// spooledBlock is one §6 replay spool entry: an encoded wire frame plus
// its row count and row-encoded (raw) size, so retry attempts resend and
// account it without re-decoding.
type spooledBlock struct {
	frame []byte
	rows  int64
	raw   int64
}

// sendSource tracks where an attempt's rows come from. The first attempt
// consumes the streaming input, encoding rows into block frames once and
// spooling the encoded blocks per slot; later attempts resend the
// unconfirmed slots from the spool — one spool entry and one resend
// enqueue per block, not per row. The input is consumed exactly once even
// when targets fail mid-stream.
type sendSource struct {
	input sqlengine.ColBatchSource // nil once consumed
	spool [][]spooledBlock         // [slot][block]; nil until k is known
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
// resends only the unconfirmed slots (from the encoded-frame spool) —
// failed ML tasks re-register fresh listeners, completed ones are never
// re-run, and every row is delivered exactly once.
func Send(req SendRequest) (*SenderStats, error) {
	cfg := req.Config
	if cfg.BufferSize <= 0 {
		cfg.BufferSize = DefaultSenderConfig().BufferSize
	}
	if cfg.QueueFrames <= 0 {
		cfg.QueueFrames = DefaultSenderConfig().QueueFrames
	}
	if cfg.SpillWait <= 0 {
		cfg.SpillWait = DefaultSenderConfig().SpillWait
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
	src := &sendSource{input: req.Input}
	if src.input == nil {
		rows := sqlengine.NewRowSource(req.Rows, row.SchemaTypes(req.Schema))
		defer rows.Close()
		src.input = rows
	}
	stats := &SenderStats{Worker: req.Worker}
	completed := make(map[int]bool)
	var lastErr error
	for attempt := 0; attempt <= cfg.MaxRestarts; attempt++ {
		if attempt > 0 {
			stats.Restarts++
			// Give failed ML tasks a moment to re-execute and re-register.
			sleepMillis(20 * attempt)
		}
		done, err := sendOnce(req, cfg, stats, completed, src)
		if done {
			return stats, nil
		}
		lastErr = err
		var fe *fatalError
		if errors.As(err, &fe) {
			break
		}
	}
	return nil, fmt.Errorf("stream: worker %d: transfer failed after %d restarts: %w", req.Worker, stats.Restarts, lastErr)
}

// sendOnce performs one attempt: it (re-)registers, awaits matches, and
// streams the slots not yet confirmed. It reports done when every slot has
// been delivered and acknowledged.
func sendOnce(req SendRequest, cfg SenderConfig, stats *SenderStats, completed map[int]bool, src *sendSource) (done bool, err error) {
	coord, err := net.DialTimeout("tcp", req.CoordAddr, cfg.DialTimeout)
	if err != nil {
		return false, fmt.Errorf("stream: dial coordinator: %w", err)
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
		return false, fmt.Errorf("stream: register: %w", err)
	}
	if err := coord.SetReadDeadline(time.Now().Add(cfg.DialTimeout)); err != nil {
		return false, fmt.Errorf("stream: set coordinator deadline: %w", err)
	}
	reply, err := readMessage(bufio.NewReader(coord))
	if err != nil {
		return false, fmt.Errorf("stream: awaiting matches: %w", err)
	}
	if reply.Type != "matches" {
		return false, fmt.Errorf("stream: unexpected coordinator reply %q: %s", reply.Type, reply.Error)
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
	targets := reply.Targets
	if len(targets) == 0 {
		return false, fmt.Errorf("stream: empty match set")
	}

	// Slot j of this worker is split worker*k + j; rows are assigned
	// round-robin by slot so the mapping is stable across attempts.
	k := len(targets)
	bySplit := make(map[int]Target, k)
	for _, t := range targets {
		bySplit[t.Split] = t
	}
	if src.spool == nil {
		src.spool = make([][]spooledBlock, k)
	}

	// Step 7: connect to the ML workers of the still-incomplete slots. The
	// resume handshake on each connection reports how many rows the reader
	// already consumed: 0 from a fresh reader, more from one that survived
	// a §6 restart and re-accepted — resume[j] is the spool index this
	// attempt resends from (always 0 when the attempt streams the input).
	chans := make([]*targetChannel, k)
	resume := make([]int, k)
	var dialErr error
	for j := 0; j < k; j++ {
		split := req.Worker*k + j
		if completed[split] {
			continue
		}
		t, ok := bySplit[split]
		if !ok {
			dialErr = fmt.Errorf("stream: coordinator match set missing split %d", split)
			break
		}
		tc, idx, err := openChannel(req, cfg, t, src.spool[j])
		if err != nil {
			dialErr = err
			break
		}
		chans[j] = tc
		resume[j] = idx
	}
	if dialErr != nil {
		closeAll(chans)
		if src.input != nil {
			// The upstream pipeline is one-shot: drain it into the spool now
			// so the retry attempt has the rows.
			if err := src.consumeInput(k, nil, cfg, row.SchemaTypes(req.Schema)); err != nil {
				return false, &fatalError{err}
			}
		}
		return false, dialErr
	}

	// Step 8: round-robin the partition across the slots, sending only the
	// incomplete ones. The first attempt streams the input as it is
	// produced; retries resend unconfirmed slots from the spool, one
	// enqueue per block, never re-encoding.
	if src.input != nil {
		if err := src.consumeInput(k, chans, cfg, row.SchemaTypes(req.Schema)); err != nil {
			// The pipeline feeding the sender failed: unsent rows are gone,
			// no restart can recover them.
			closeAll(chans)
			return false, &fatalError{err}
		}
	} else {
		for j, tc := range chans {
			if tc == nil || tc.aborted {
				continue
			}
			// Resend from the resume point: frames the reader confirmed
			// consuming (via the handshake) are skipped, so a surviving
			// reader is not fed duplicates it would have to discard.
			for _, sb := range src.spool[j][resume[j]:] {
				if err := tc.enqueue(sb.frame); err != nil {
					// Keep streaming the healthy slots; this one retries
					// next attempt.
					tc.abort()
					break
				}
			}
		}
	}
	// Await per-slot completion; the ACK handshake makes delivery failures
	// deterministic even when the OS buffered the final bytes.
	var firstErr error
	for j, tc := range chans {
		if tc == nil {
			continue
		}
		split := req.Worker*k + j
		if err := tc.finish(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		completed[split] = true
		slotStats(stats, src.spool[j])
		stats.SpilledBytes += tc.spilledBytes
	}
	// Per-target recovery: before escalating to a §6 group restart, redial
	// each failed slot with capped exponential backoff + jitter and resume
	// from the frame-aligned spool (the handshake tells the reader's
	// consumed offset). A single broken connection is thereby absorbed
	// without touching the healthy slots or re-running any reader; only an
	// exhausted budget escalates.
	if firstErr != nil && cfg.ReconnectBudget > 0 {
		allRecovered := true
		for j, tc := range chans {
			split := req.Worker*k + j
			if completed[split] {
				continue
			}
			if tc == nil {
				allRecovered = false
				continue
			}
			if err := recoverSlot(req, cfg, stats, src.spool[j], split, bySplit[split]); err != nil {
				allRecovered = false
				firstErr = err
				continue
			}
			completed[split] = true
			slotStats(stats, src.spool[j])
		}
		if allRecovered {
			return true, nil
		}
	}
	if firstErr != nil {
		return false, firstErr
	}
	return true, nil
}

// slotStats folds one confirmed slot's delivery into the worker stats. The
// spool is the slot's logical content: a resumed channel resends only a
// suffix, so counting what a channel wrote would undercount the
// exactly-once delivery.
func slotStats(stats *SenderStats, spool []spooledBlock) {
	for _, sb := range spool {
		stats.RowsSent += sb.rows
		stats.BytesSent += int64(len(sb.frame))
		stats.FramesSent++
		stats.RawBytes += sb.raw
		stats.WireBytes += int64(len(sb.frame))
	}
}

// recoverSlot redials one failed target until its slot is delivered and
// acknowledged or the reconnect budget runs out. Each attempt re-queries
// the coordinator for the split's latest registration — a reader that
// crashed and re-executed has a fresh listener and epoch there — and
// resumes from the spool frame holding the first row the reader has not
// consumed.
func recoverSlot(req SendRequest, cfg SenderConfig, stats *SenderStats, spool []spooledBlock, split int, t Target) error {
	var lastErr error
	for attempt := 0; attempt < cfg.ReconnectBudget; attempt++ {
		time.Sleep(backoffDelay(reconnectBackoff, attempt, req.Worker, split))
		if nt, err := getTarget(req.CoordAddr, cfg.DialTimeout, req.Job, split); err == nil {
			t = nt
		}
		tc, idx, err := openChannel(req, cfg, t, spool)
		if err != nil {
			lastErr = err
			continue
		}
		stats.Reconnects++
		enqueued := true
		for _, sb := range spool[idx:] {
			if err := tc.enqueue(sb.frame); err != nil {
				tc.abort()
				lastErr = err
				enqueued = false
				break
			}
		}
		if !enqueued {
			continue
		}
		if err := tc.finish(); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("stream: split %d: no reconnect attempts allowed", split)
	}
	return fmt.Errorf("stream: split %d: reconnect budget (%d) exhausted: %w", split, cfg.ReconnectBudget, lastErr)
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
func getTarget(coordAddr string, timeout time.Duration, job string, split int) (_ Target, err error) {
	conn, err := net.DialTimeout("tcp", coordAddr, timeout)
	if err != nil {
		return Target{}, fmt.Errorf("stream: dial coordinator: %w", err)
	}
	defer func() {
		if cerr := conn.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if err := json.NewEncoder(conn).Encode(message{Type: "get_target", Job: job, Split: split}); err != nil {
		return Target{}, err
	}
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return Target{}, err
	}
	reply, err := readMessage(bufio.NewReader(conn))
	if err != nil {
		return Target{}, fmt.Errorf("stream: get_target: %w", err)
	}
	if reply.Type != "target" || len(reply.Targets) != 1 {
		return Target{}, fmt.Errorf("stream: get_target failed: %s", reply.Error)
	}
	return reply.Targets[0], nil
}

// consumeInput drains the streaming input exactly once, packing each
// slot's rows into block frames built on pooled buffers, spooling each
// finished block and fanning it out to the live channels (chans is nil
// when a dial failure means this attempt only spools). Rows are assigned
// round-robin (row i → slot i mod k) straight off the batches' vectors. A
// slot's block flushes on the row/byte budget, checked after every row,
// and at end of stream, so channel operations, spool entries, and wire
// writes are O(blocks), not O(rows). The input is consumed afterwards.
func (s *sendSource) consumeInput(k int, chans []*targetChannel, cfg SenderConfig, types []row.Type) error {
	in := s.input
	s.input = nil
	// Every slot's encoder stages column-major and Finish emits a columnar
	// frame with per-column encodings. The flush budget is counted in
	// row-encoded bytes (RawBytes), so it does not move with how well a
	// block happens to compress.
	encoders := make([]row.BlockEncoder, k)
	for j := range encoders {
		encoders[j].EnableColumnar(types, !cfg.DisableCompression)
	}
	// flush seals slot j's block and hands it on.
	flush := func(j int) {
		enc := &encoders[j]
		rows, raw := int64(enc.Rows()), int64(enc.RawBytes())
		frame := enc.Finish()
		if frame == nil {
			return
		}
		s.spool[j] = append(s.spool[j], spooledBlock{frame: frame, rows: rows, raw: raw})
		if chans == nil {
			return
		}
		tc := chans[j]
		if tc == nil || tc.aborted {
			return
		}
		if err := tc.enqueue(frame); err != nil {
			// Keep streaming the healthy slots; this one retries next
			// attempt.
			tc.abort()
		}
	}
	i := 0
	for {
		b, ok, err := in.NextCol()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for si, n := 0, b.Len(); si < n; si++ {
			j := i % k
			i++
			enc := &encoders[j]
			enc.AppendBatchRow(b, b.SelPos(si))
			if enc.Rows() >= cfg.BlockRows || enc.RawBytes() >= row.BlockTargetBytes {
				flush(j)
			}
		}
	}
	// End of stream: flush every slot's partial block.
	for j := range encoders {
		flush(j)
	}
	return nil
}

func nodeAddr(n *cluster.Node) string {
	if n == nil {
		return ""
	}
	return n.Addr
}

func closeAll(chans []*targetChannel) {
	for _, tc := range chans {
		if tc != nil {
			tc.abort()
		}
	}
}

// targetChannel is the per-ML-worker send path: a bounded frame queue
// drained by a writer goroutine into a buffered socket, with overflow
// spilling to a local disk file.
type targetChannel struct {
	conn   net.Conn
	w      *bufio.Writer
	queue  chan []byte
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

	spill        *os.File
	spillTimer   *time.Timer
	spilledBytes int64
	aborted      bool
}

// resumeMagic opens the reader→sender resume header on every data
// connection: magic(2) epoch(4) rowsConsumed(8), big-endian. The sender
// answers with startRow(8) — the first row of the first frame it will
// (re)send — then the schema, then frames. On a fresh connection both
// offsets are zero and the handshake degenerates to the original protocol
// plus 22 bytes.
const resumeMagic = 0x534C // "SL"

// errStaleEpoch marks a handshake against a reader from a different
// registration generation than the sender's target info; the recovery loop
// refreshes via get_target and redials.
var errStaleEpoch = errors.New("stream: stale target epoch")

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

// resumePoint locates the resume frame for a reader that has consumed the
// given row count: the index of the spool frame containing the first
// unseen row, and that frame's start row. A consumed count past the spool
// returns index -1 (protocol violation — the reader saw rows this sender
// never spooled).
func resumePoint(spool []spooledBlock, consumed uint64) (int, uint64) {
	var cum uint64
	for i, sb := range spool {
		if cum+uint64(sb.rows) > consumed {
			return i, cum
		}
		cum += uint64(sb.rows)
	}
	if cum == consumed {
		return len(spool), cum
	}
	return -1, 0
}

// openChannel dials one target and runs the sender side of the resume
// handshake; it returns the live channel plus the spool index to resend
// from. The channel owns the connection; the caller owns enqueueing.
func openChannel(req SendRequest, cfg SenderConfig, t Target, spool []spooledBlock) (*targetChannel, int, error) {
	dial := cfg.Dial
	if dial == nil {
		dial = net.DialTimeout
	}
	conn, err := dial("tcp", t.Listen, cfg.DialTimeout)
	if err != nil {
		return nil, 0, fmt.Errorf("stream: dial ml worker %s: %w", t.Listen, err)
	}
	fail := func(err error) (*targetChannel, int, error) {
		if cerr := conn.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, 0, err
	}
	epoch, consumed, err := readResumeHeader(conn, cfg.DialTimeout)
	if err != nil {
		return fail(fmt.Errorf("stream: ml worker %s: %w", t.Listen, err))
	}
	if t.Epoch != 0 && epoch != t.Epoch {
		return fail(fmt.Errorf("stream: ml worker %s: %w (reader epoch %d, matched epoch %d)",
			t.Listen, errStaleEpoch, epoch, t.Epoch))
	}
	idx, startRow := resumePoint(spool, consumed)
	if idx < 0 {
		return fail(fmt.Errorf("stream: ml worker %s: consumed %d rows beyond the spool", t.Listen, consumed))
	}
	tc := &targetChannel{
		conn:    conn,
		w:       bufio.NewWriterSize(conn, cfg.BufferSize),
		queue:   make(chan []byte, cfg.QueueFrames),
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
	var ack [8]byte
	binary.BigEndian.PutUint64(ack[:], startRow)
	if _, err := tc.w.Write(ack[:]); err != nil {
		return fail(err)
	}
	if err := row.WriteSchema(tc.w, req.Schema); err != nil {
		return fail(err)
	}
	go tc.creditLoop()
	go tc.writeLoop()
	return tc, idx, nil
}

// creditLoop reads flow-control bytes from the receiver: one credit byte
// per consumed receive buffer, and the final delivery ACK. It closes the
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

// enqueue hands one encoded block frame to the writer, which only reads it:
// the replay spool owns the slice until the slot's ACK. When the queue is
// full it blocks up to SpillWait for the consumer to catch up, then
// spills the whole block to disk in one write (the paper's
// producer/consumer synchronization for slow ML workers, at block
// granularity).
func (tc *targetChannel) enqueue(f []byte) error {
	select {
	case tc.queue <- f:
		return nil
	default:
	}
	// Queue full: give the consumer SpillWait to drain before spilling.
	if tc.spillTimer == nil {
		tc.spillTimer = time.NewTimer(tc.cfg.SpillWait)
	} else {
		tc.spillTimer.Reset(tc.cfg.SpillWait)
	}
	select {
	case tc.queue <- f:
		if !tc.spillTimer.Stop() {
			<-tc.spillTimer.C
		}
		return nil
	case <-tc.spillTimer.C:
	}
	// Queue full: spill. The writer drains the spill file after the
	// in-memory queue closes, preserving at-least-once delivery. The frame
	// goes to disk byte-identical — the file is a concatenation of wire
	// frames, replayed as raw bytes.
	if tc.spill == nil {
		sp, err := os.CreateTemp(tc.cfg.SpillDir, "sqlml-spill-*")
		if err != nil {
			return fmt.Errorf("stream: create spill file: %w", err)
		}
		tc.spill = sp
	}
	if _, err := tc.spill.Write(f); err != nil {
		return fmt.Errorf("stream: spill write: %w", err)
	}
	tc.spilledBytes += int64(len(f))
	if tc.cost != nil && tc.fromNode != nil {
		tc.cost.ChargeDiskWrite(tc.fromNode, len(f))
	}
	return nil
}

// writeLoop drains the queue into the socket under credit-based flow
// control — the writer keeps at most one send buffer plus one receive
// buffer of unconsumed bytes in flight, so a slow consumer backpressures
// the writer (and, through the bounded queue, the producer, whose overflow
// spills to disk). Network cost is charged per flushed buffer.
func (tc *targetChannel) writeLoop() {
	var pending int
	charge := func() {
		if pending > 0 && tc.cost != nil && tc.fromNode != nil && tc.toNode != nil {
			tc.cost.ChargeNet(tc.fromNode, tc.toNode, pending)
		}
		pending = 0
	}
	window := 2 * tc.cfg.BufferSize
	inflight := 0
	writeChunk := func(chunk []byte) error {
		// Flow control: wait for credits while a full window is in flight.
		// Everything buffered locally must be flushed first — the reader
		// can only grant credits for bytes it can actually see. A chunk is
		// written whole once there is *any* window room (not only when it
		// fits entirely): a block frame can exceed the window on its own,
		// and since the receiver credits a block's bytes only after serving
		// its last row, requiring the whole frame to fit would deadlock.
		// In-flight bytes stay bounded by one window plus one frame.
		if inflight >= window {
			if err := tc.w.Flush(); err != nil {
				return err
			}
			charge()
		}
		for inflight >= window {
			credit, ok := <-tc.credits
			if !ok {
				return fmt.Errorf("stream: receiver %s gone", tc.target.Listen)
			}
			inflight -= credit
			if inflight < 0 {
				inflight = 0
			}
		}
		inflight += len(chunk)
		_, err := tc.w.Write(chunk)
		return err
	}
	for frame := range tc.queue {
		if err := writeChunk(frame); err != nil {
			tc.done <- err
			tc.drain()
			return
		}
		pending += len(frame)
		if pending >= tc.cfg.BufferSize {
			if err := tc.w.Flush(); err != nil {
				tc.done <- err
				tc.drain()
				return
			}
			charge()
		}
	}
	// Replay the spill file, if any — frame-aligned: the flow-control
	// window assumes every write is a whole frame (a partial frame can
	// never earn credits, since the reader only credits bytes it has
	// decoded and served), so the replay re-frames the raw file instead of
	// streaming fixed-size chunks.
	if tc.spill != nil {
		if _, err := tc.spill.Seek(0, 0); err != nil {
			tc.done <- err
			return
		}
		r := bufio.NewReader(tc.spill)
		var buf []byte
		for {
			frame, err := row.ReadRawFrame(r, buf[:0])
			if err == io.EOF {
				break
			}
			if err != nil {
				tc.done <- err
				return
			}
			buf = frame
			if tc.cost != nil && tc.fromNode != nil {
				tc.cost.ChargeDiskRead(tc.fromNode, len(frame))
			}
			if werr := writeChunk(frame); werr != nil {
				tc.done <- werr
				return
			}
			pending += len(frame)
			if pending >= tc.cfg.BufferSize {
				if werr := tc.w.Flush(); werr != nil {
					tc.done <- werr
					return
				}
				charge()
			}
		}
	}
	// The explicit end-of-stream frame: without it a reader could mistake a
	// connection that died exactly on a frame boundary for completion and
	// commit a truncated split.
	if err := row.WriteEOS(tc.w); err != nil {
		tc.done <- err
		return
	}
	if err := tc.w.Flush(); err != nil {
		tc.done <- err
		return
	}
	charge()
	// Half-close the write side so the reader observes a clean end of
	// stream while the connection stays readable for credits and the ACK.
	if cw, ok := tc.conn.(interface{ CloseWrite() error }); ok {
		if err := cw.CloseWrite(); err != nil {
			tc.done <- err
			return
		}
	}
	// The creditLoop delivers the reader's final acknowledgement.
	select {
	case err := <-tc.acks:
		tc.done <- err
	case <-time.After(tc.cfg.DialTimeout):
		tc.done <- fmt.Errorf("stream: ack timeout from %s", tc.target.Listen)
	}
}

// drain discards queued frames after a write failure (the replay spool
// still owns them), so a producer blocked in enqueue is released.
func (tc *targetChannel) drain() {
	for range tc.queue {
	}
}

// finish closes the queue and waits for the writer's outcome. Teardown
// errors (connection close, spill close/remove) are joined into the
// result: a spill file that cannot be closed or removed is a durability
// leak the caller must hear about, even when delivery itself succeeded.
func (tc *targetChannel) finish() error {
	if tc.aborted {
		return fmt.Errorf("stream: channel aborted")
	}
	close(tc.queue)
	err := <-tc.done
	if cerr := tc.cleanup(); cerr != nil {
		err = errors.Join(err, cerr)
	}
	return err
}

// abort tears the channel down without waiting for delivery.
func (tc *targetChannel) abort() {
	if tc.aborted {
		return
	}
	tc.aborted = true
	// Closing the connection first unblocks a writer stuck in Write; the
	// duplicate Close inside cleanup then reports "use of closed", which
	// is expected and irrelevant on this already-failed path.
	_ = tc.conn.Close()
	close(tc.queue)
	<-tc.done
	_ = tc.cleanup()
}

// cleanup releases the connection and the spill spool, reporting every
// failure so callers on the success path can surface them.
func (tc *targetChannel) cleanup() error {
	err := tc.conn.Close()
	if tc.spill != nil {
		name := tc.spill.Name()
		if cerr := tc.spill.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		if rerr := os.Remove(name); rerr != nil {
			err = errors.Join(err, rerr)
		}
	}
	return err
}

// ackByte is the end-of-stream acknowledgement the ML reader returns;
// creditByte is its flow-control grant (one per consumed receive buffer).
const (
	ackByte    = 0x06
	creditByte = 0x07
)

func sleepMillis(n int) { time.Sleep(time.Duration(n) * time.Millisecond) }

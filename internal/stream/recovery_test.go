package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlml/internal/cluster"
	"sqlml/internal/fault"
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/ml"
	"sqlml/internal/row"
)

func TestResumePoint(t *testing.T) {
	spool := []logEntry{
		{frame: []byte("a"), rows: 64},
		{frame: []byte("b"), rows: 64},
		{frame: []byte("c"), rows: 22},
	}
	cases := []struct {
		consumed  uint64
		wantIdx   int
		wantStart uint64
	}{
		{0, 0, 0},           // fresh reader: resend everything
		{1, 0, 0},           // mid first frame
		{63, 0, 0},          // row 63 unseen and frame 0 holds rows 0-63
		{64, 1, 64},         // first frame fully consumed
		{100, 1, 64},        // mid second frame
		{128, 2, 128},       // two frames consumed
		{150, 3, 150},       // everything consumed: resend nothing
		{151, -1, 0},        // beyond the spool: protocol violation
		{^uint64(0), -1, 0}, // absurdly beyond
	}
	for _, c := range cases {
		idx, start := resumePoint(spool, c.consumed)
		if idx != c.wantIdx || start != c.wantStart {
			t.Errorf("resumePoint(consumed=%d) = (%d, %d), want (%d, %d)",
				c.consumed, idx, start, c.wantIdx, c.wantStart)
		}
	}
	if idx, start := resumePoint(nil, 0); idx != 0 || start != 0 {
		t.Errorf("resumePoint(empty, 0) = (%d, %d), want (0, 0)", idx, start)
	}
	if idx, _ := resumePoint(nil, 1); idx != -1 {
		t.Errorf("resumePoint(empty, 1) = %d, want -1", idx)
	}
}

func TestBackoffDelayCappedAndDeterministic(t *testing.T) {
	base := 10 * time.Millisecond
	for attempt := 0; attempt < 12; attempt++ {
		d1 := backoffDelay(base, attempt, 3, 7)
		d2 := backoffDelay(base, attempt, 3, 7)
		if d1 != d2 {
			t.Fatalf("attempt %d: jitter not deterministic (%v vs %v)", attempt, d1, d2)
		}
		if d1 < base || d1 >= 2*500*time.Millisecond {
			t.Fatalf("attempt %d: delay %v outside [base, 2*cap)", attempt, d1)
		}
	}
	if backoffDelay(base, 2, 1, 1) == backoffDelay(base, 2, 1, 2) {
		t.Error("different splits share identical jitter; schedules would synchronize")
	}
}

// TestRecoverSlotExhaustsBudget points a slot's reconnect transition at a
// target whose dial always fails: it must try exactly ReconnectBudget
// times, then escalate naming the budget and wrapping the dial error. The
// dialer reports an attempt past the budget itself, because a recovery loop
// that lost its bound would never return to be counted.
func TestRecoverSlotExhaustsBudget(t *testing.T) {
	coord := NewCoordinator(nil)
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()

	const budget = 3
	refused := errors.New("ml worker refuses connections")
	dials := 0 // written by the recovery goroutine, read after it is done
	over := make(chan struct{}, 1)
	cfg := DefaultSenderConfig()
	cfg.ReconnectBudget = budget
	cfg.Dial = func(string, string, time.Duration) (net.Conn, error) {
		if dials++; dials == budget+1 {
			over <- struct{}{}
		}
		return nil, refused
	}
	s := &sender{req: SendRequest{CoordAddr: addr, Job: "jbudget", Schema: streamSchema()}, cfg: cfg}
	sl := &slot{target: Target{Listen: "127.0.0.1:1"}}
	done := make(chan error, 1)
	go func() { done <- sl.reconnect(s) }()
	select {
	case <-over:
		t.Fatalf("reconnect dialed %d times with a budget of %d", budget+1, budget)
	case err = <-done:
	}
	if dials != budget {
		t.Errorf("reconnect dialed %d times, want %d", dials, budget)
	}
	if want := fmt.Sprintf("reconnect budget (%d) exhausted", budget); err == nil ||
		!strings.Contains(err.Error(), want) || !errors.Is(err, refused) {
		t.Errorf("reconnect = %v, want %q wrapping the dial error", err, want)
	}
	if sl.done || sl.ch != nil || s.stats.Reconnects != 0 {
		t.Errorf("slot after an exhausted budget: done=%v live channel=%v reconnects=%d", sl.done, sl.ch != nil, s.stats.Reconnects)
	}
}

// TestReaderReconnectExhaustsBudget is the reader-side twin: a sender that
// connects and hangs up at the resume handshake, every time, must be
// re-accepted exactly budget times before the reader gives up with the last
// handshake failure — or, with no budget, at once with the original cause.
// The peer counts handshakes for the same reason the dialer above counts.
func TestReaderReconnectExhaustsBudget(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 3
	r := &streamReader{ln: ln, timeout: 10 * time.Second, bufSize: 4 << 10, budget: budget}
	defer func() {
		if err := r.Close(); err != nil {
			t.Error(err)
		}
	}()

	over := make(chan struct{}, 1)
	go func() {
		for n := 1; ; n++ {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return // listener closed: the test is over
			}
			var hdr [14]byte
			_, err = io.ReadFull(conn, hdr[:])
			_ = conn.Close()
			if err != nil {
				return
			}
			if n == budget+1 {
				over <- struct{}{}
			}
		}
	}()

	cause := errors.New("connection reset mid-stream")
	done := make(chan error, 1)
	go func() { done <- r.reconnect(cause) }()
	select {
	case <-over:
		t.Fatalf("reader ran %d handshakes with a budget of %d", budget+1, budget)
	case err = <-done:
	}
	if r.reconnects != budget {
		t.Errorf("reader re-accepted %d times, want %d", r.reconnects, budget)
	}
	if err == nil || errors.Is(err, cause) || !strings.Contains(err.Error(), "resume ack") {
		t.Errorf("reconnect = %v, want the last attempt's handshake failure", err)
	}

	r.budget, r.reconnects = 0, 0
	if err := r.reconnect(cause); err != cause || r.reconnects != 0 {
		t.Errorf("reconnect with no budget = %v after %d attempts, want the cause untouched", err, r.reconnects)
	}
}

// TestReaderRefusesStartRowBelowConsumed: the reader counts whole frames,
// so a sender answering the resume handshake with a start row below the
// consumed count would replay rows the task already has. The reader refuses
// it as a protocol violation, naming both numbers, instead of skipping the
// overlap.
func TestReaderRefusesStartRowBelowConsumed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &streamReader{ln: ln, timeout: 10 * time.Second, bufSize: 4 << 10, rowsRead: 128}
	defer func() {
		if err := r.Close(); err != nil {
			t.Error(err)
		}
	}()

	reported := make(chan uint64, 1)
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		defer func() { _ = conn.Close() }()
		var hdr [14]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		reported <- binary.BigEndian.Uint64(hdr[6:])
		// Resume one 64-row frame early, as a sender that lost track of
		// the reader's count would, and hang up.
		var ack [12]byte
		binary.BigEndian.PutUint64(ack[:8], 64)
		binary.BigEndian.PutUint32(ack[8:], 4<<10)
		_, _ = conn.Write(ack[:])
	}()

	err = r.connect()
	if got := <-reported; got != 128 {
		t.Fatalf("reader reported %d consumed rows in its resume header, want 128", got)
	}
	if err == nil || !strings.Contains(err.Error(), "row 64") || !strings.Contains(err.Error(), "consumed 128") {
		t.Errorf("connect = %v, want a refusal naming start row 64 and consumed 128", err)
	}
}

// TestReaderRefusesCreditUnitOutOfRange: the start reply's credit unit
// divides the reader's byte count, so a peer naming 0, or more than a
// block frame's bound, is refused at the handshake.
func TestReaderRefusesCreditUnitOutOfRange(t *testing.T) {
	for _, unit := range []uint32{0, row.MaxBlockSize + 1} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		r := &streamReader{ln: ln, timeout: 10 * time.Second, bufSize: 4 << 10}
		go func() {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return
			}
			defer func() { _ = conn.Close() }()
			var hdr [14]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				return
			}
			var reply [12]byte
			binary.BigEndian.PutUint32(reply[8:], unit)
			_, _ = conn.Write(reply[:])
		}()
		if err := r.connect(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("credit unit %d", unit)) {
			t.Errorf("connect with credit unit %d = %v, want a refusal naming it", unit, err)
		}
		if err := r.Close(); err != nil {
			t.Error(err)
		}
	}
}

// TestCreditsGrantedPerFetchedFrame pins the reader's credit ledger
// against a raw peer speaking the sender's side of a data connection
// (start row and credit unit, then frames): once the reader has fetched
// frames totalling B bytes, the peer has received exactly ⌊B / unit⌋
// credit bytes. A frame that has arrived but is not yet fetched grants
// nothing, and the remainder of one frame's bytes counts toward the next
// frame's credits.
func TestCreditsGrantedPerFetchedFrame(t *testing.T) {
	types := row.SchemaTypes(streamSchema())
	var enc row.BlockEncoder
	enc.EnableColumnar(types, true)
	frames := make([][]byte, 2)
	for i := range frames {
		b := row.NewColBatch(types)
		for _, rw := range genRows(i, 40) {
			b.AppendRow(rw)
		}
		enc.AppendBatch(b)
		frames[i] = enc.Finish()
	}
	f1, f2 := len(frames[0]), len(frames[1])
	bufSize := f1 * 2 / 3
	if (f1+f2)/bufSize <= f1/bufSize+f2/bufSize {
		t.Fatalf("frames of %d and %d bytes with %d-byte buffers carry no remainder", f1, f2, bufSize)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &streamReader{format: &InputFormat{}, ln: ln, timeout: 10 * time.Second, bufSize: bufSize, types: types}
	defer func() {
		if err := r.Close(); err != nil {
			t.Error(err)
		}
	}()
	peer, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = peer.Close() }()
	connected := make(chan error, 1)
	go func() { connected <- r.connect() }()
	if err := peer.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var hdr [14]byte
	if _, err := io.ReadFull(peer, hdr[:]); err != nil {
		t.Fatal(err)
	}
	var start [12]byte
	binary.BigEndian.PutUint32(start[8:], uint32(bufSize))
	if _, err := peer.Write(append(append(start[:], frames[0]...), frames[1]...)); err != nil {
		t.Fatal(err)
	}
	if err := <-connected; err != nil {
		t.Fatal(err)
	}

	// credits reads exactly want credit bytes off the peer and then
	// checks that no further byte follows.
	credits := func(want int, after string) {
		t.Helper()
		got := make([]byte, want)
		if err := peer.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(peer, got); err != nil {
			t.Fatalf("after %s: reading %d credits: %v", after, want, err)
		}
		if n := bytes.Count(got, []byte{creditByte}); n != want {
			t.Fatalf("after %s: %d of %d bytes are credits", after, n, want)
		}
		if err := peer.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		var extra [1]byte
		if n, _ := peer.Read(extra[:]); n != 0 {
			t.Fatalf("after %s: more than %d credit bytes", after, want)
		}
	}
	dst := row.NewColBatch(nil)
	if _, ok, err := r.NextColBatch(dst); !ok {
		t.Fatalf("first frame: %v", err)
	}
	credits(f1/bufSize, "the first frame, with the second already arrived")
	if _, ok, err := r.NextColBatch(dst); !ok {
		t.Fatalf("second frame: %v", err)
	}
	credits((f1+f2)/bufSize-f1/bufSize, "the second frame")
}

// TestConnResetRecoversThroughRowView is the reset test for a consumer
// that drains every split through Next, the row view mapred map tasks use:
// the view fetches whole frames, so the reader's resume point stays
// frame-aligned and one reset is absorbed exactly-once with no §6 group
// restart.
func TestConnResetRecoversThroughRowView(t *testing.T) {
	env := newTransferEnv(t)
	env.ingest = drainThroughNext
	f := &InputFormat{CoordAddr: env.coordAddr, Job: "jrowview", AcceptTimeout: 5 * time.Second}
	dialer := fault.NewDialer(1, fault.DialerConfig{MaxFaults: 1, Ops: []fault.Op{fault.Reset}, MaxByte: 1 << 10})
	cfg := DefaultSenderConfig()
	cfg.Dial = dialer.Dial
	cfg.BlockRows = 64
	d, stats := env.runTransfer(t, "jrowview", 2, 2, 400, f, cfg)
	if dialer.Injected() != 1 {
		t.Fatalf("armed %d faults, want 1", dialer.Injected())
	}
	checkExactlyOnce(t, d, 2, 400)
	restarts, reconnects := 0, 0
	for _, s := range stats {
		restarts += s.Restarts
		reconnects += s.Reconnects
	}
	if reconnects == 0 {
		t.Error("injected reset never exercised the reconnect path")
	}
	if restarts != 0 || env.coord.Restarts("jrowview") != 0 {
		t.Errorf("group restarts: sender %d, coordinator %d; want pure per-target recovery", restarts, env.coord.Restarts("jrowview"))
	}
}

// drainThroughNext reads every split of f concurrently (each split's
// sender needs its reader connected) through Next alone, one partition per
// split, with the row's id and x as the features checkExactlyOnce reads.
func drainThroughNext(f hadoopfmt.InputFormat) (*ml.Dataset, error) {
	splits, err := f.Splits(0)
	if err != nil {
		return nil, err
	}
	d := &ml.Dataset{Parts: make([][]ml.LabeledPoint, len(splits)), NumFeatures: 2}
	errs := make([]error, len(splits))
	var wg sync.WaitGroup
	for i, sp := range splits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr, err := f.Open(sp, nil)
			if err != nil {
				errs[i] = err
				return
			}
			for {
				r, ok, err := rr.Next()
				if err != nil || !ok {
					errs[i] = errors.Join(err, rr.Close())
					return
				}
				d.Parts[i] = append(d.Parts[i], ml.LabeledPoint{Label: r[2].AsFloat(), Features: []float64{r[0].AsFloat(), r[1].AsFloat()}})
			}
		}()
	}
	wg.Wait()
	return d, errors.Join(errs...)
}

// TestSpilledBytesCountsEveryChannel: SenderStats.SpilledBytes is every
// byte the sender spilled — including the spill of a channel that then
// failed and of the channel its reconnect opened — so it equals what the
// cost model was charged for spill writes when nothing else writes disk.
func TestSpilledBytesCountsEveryChannel(t *testing.T) {
	env := newTransferEnv(t)
	env.cost = &cluster.CostModel{DiskReadBps: 1e9, DiskWriteBps: 1e9, NetBps: 1e9}
	f := &InputFormat{
		CoordAddr:     env.coordAddr,
		Job:           "jspillreset",
		ConsumeDelay:  20 * time.Microsecond,
		AcceptTimeout: 5 * time.Second,
	}
	dialer := fault.NewDialer(1, fault.DialerConfig{MaxFaults: 1, Ops: []fault.Op{fault.Reset}, MaxByte: 1 << 10})
	cfg := DefaultSenderConfig()
	cfg.Dial = dialer.Dial
	cfg.QueueBytes = 512 // about two 16-row frames
	cfg.BlockRows = 16
	cfg.SpillDir = t.TempDir()
	d, stats := env.runTransfer(t, "jspillreset", 2, 1, 1500, f, cfg)
	if dialer.Injected() != 1 {
		t.Fatalf("armed %d faults, want 1", dialer.Injected())
	}
	checkExactlyOnce(t, d, 2, 1500)
	var spilled, sent int64
	reconnects := 0
	for _, s := range stats {
		spilled += s.SpilledBytes
		sent += s.RowsSent
		reconnects += s.Reconnects
	}
	if reconnects == 0 {
		t.Error("injected reset never exercised the reconnect path")
	}
	if sent != 2*1500 {
		t.Errorf("rows sent = %d, want %d: a recovered slot's delivery was not counted", sent, 2*1500)
	}
	charged := env.cost.Stats().DiskWriteBytes
	if charged == 0 {
		t.Fatal("slow consumer did not trigger spilling")
	}
	if spilled != charged {
		t.Errorf("SenderStats.SpilledBytes sums to %d, cost model charged %d spill bytes", spilled, charged)
	}
}

// pacedSource serves rows as batches of per rows and, once, after its
// first after batches, pauses and then calls gate (if set), whose error
// fails the input: a producer that stops long enough for a slow consumer
// to catch up with the sender's log, or until a test's condition holds.
type pacedSource struct {
	rows       []row.Row
	per, after int
	pause      time.Duration
	gate       func() error
	served     int
	b          *row.ColBatch
}

func (p *pacedSource) NextCol() (*row.ColBatch, bool, error) {
	if len(p.rows) == 0 {
		return nil, false, nil
	}
	if p.served == p.after {
		time.Sleep(p.pause)
		if p.gate != nil {
			if err := p.gate(); err != nil {
				return nil, false, err
			}
		}
	}
	p.served++
	types := row.SchemaTypes(streamSchema())
	if p.b == nil {
		p.b = row.NewColBatch(types)
	}
	p.b.Reset(types)
	k := min(p.per, len(p.rows))
	for _, r := range p.rows[:k] {
		p.b.AppendRow(r)
	}
	p.rows = p.rows[k:]
	return p.b, true, nil
}

func (p *pacedSource) Close() { p.rows = nil }

// TestSpillKeepsSpoolOrderAcrossReconnect: once a channel has spilled, its
// later frames follow the spilled ones to the reader. The producer spills
// behind a slow consumer, pauses until the queue has drained, then
// produces again; a reset on the first data connection then resumes from
// the reader's consumed-row count, which is a spool offset only if the
// reader saw the spool in order. Every split must arrive in id order,
// every row exactly once.
func TestSpillKeepsSpoolOrderAcrossReconnect(t *testing.T) {
	const rows = 3000
	for _, at := range []int64{8000, 12000, 16000, 20000} {
		t.Run(fmt.Sprintf("reset_at_%d", at), func(t *testing.T) {
			t.Parallel() // each run is a paced sleep, not CPU
			env := newTransferEnv(t)
			job := fmt.Sprintf("jspillorder-%d", at)
			f := &InputFormat{CoordAddr: env.coordAddr, Job: job, ConsumeDelay: 50 * time.Microsecond, AcceptTimeout: 5 * time.Second}
			cfg := DefaultSenderConfig()
			cfg.QueueBytes = 512 // about two 16-row frames
			cfg.BlockRows = 16
			cfg.SpillDir = t.TempDir()
			var dials atomic.Int32
			cfg.Dial = func(network, addr string, timeout time.Duration) (net.Conn, error) {
				c, err := net.DialTimeout(network, addr, timeout)
				if err != nil || dials.Add(1) > 1 {
					return c, err
				}
				return fault.WrapConn(c, fault.ConnFault{Op: fault.Reset, AtByte: at}), nil
			}
			ingested := make(chan *ml.Dataset, 1)
			go func() {
				<-env.launched
				d, err := ml.Ingest(f, ml.IngestOptions{LabelCol: "label", Nodes: env.topo.Nodes()})
				if err != nil {
					t.Errorf("ingest: %v", err)
				}
				ingested <- d
			}()
			stats, err := Send(SendRequest{
				CoordAddr: env.coordAddr, Job: job, Command: "svm",
				Worker: 0, NumWorkers: 1, K: 1,
				Node: env.topo.Node(1), Topo: env.topo, Schema: streamSchema(),
				Input:  &pacedSource{rows: genRows(0, rows), per: 16, after: 60, pause: 300 * time.Millisecond},
				Config: cfg,
			})
			if err != nil {
				t.Fatal(err)
			}
			d := <-ingested
			if d == nil {
				t.FailNow()
			}
			if stats.SpilledBytes == 0 {
				t.Error("slow consumer did not trigger spilling")
			}
			if stats.Reconnects == 0 {
				t.Error("injected reset never exercised the reconnect path")
			}
			for split, part := range d.Parts {
				for i := 1; i < len(part); i++ {
					if part[i].Features[0] <= part[i-1].Features[0] {
						t.Fatalf("split %d: id %v arrived after %v", split, part[i].Features[0], part[i-1].Features[0])
					}
				}
			}
			checkExactlyOnce(t, d, 1, rows)
		})
	}
}

// TestConnResetRecoversViaSpoolResume is the PR's core acceptance check: a
// single injected data-connection reset is absorbed by the sender's
// backoff-and-reconnect path resuming from the spill spool — exactly-once
// delivery, zero §6 group restarts (asserted via the coordinator's restart
// counter, which only group re-registrations touch).
func TestConnResetRecoversViaSpoolResume(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed int64
		ops  []fault.Op
	}{
		{"reset/seed1", 1, []fault.Op{fault.Reset}},
		{"reset/seed2", 2, []fault.Op{fault.Reset}},
		{"short-write/seed3", 3, []fault.Op{fault.ShortWrite}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newTransferEnv(t)
			job := fmt.Sprintf("jreset-%d", tc.seed)
			f := &InputFormat{CoordAddr: env.coordAddr, Job: job, AcceptTimeout: 5 * time.Second}
			dialer := fault.NewDialer(tc.seed, fault.DialerConfig{
				MaxFaults: 1,
				Ops:       tc.ops,
				// Rows per slot encode to a few KB; keep the scripted offset
				// well inside that so the fault always fires mid-stream.
				MaxByte: 1 << 10,
			})
			cfg := DefaultSenderConfig()
			cfg.Dial = dialer.Dial
			cfg.BlockRows = 64 // several frames per slot, so resume is frame-aligned
			d, stats := env.runTransfer(t, job, 2, 2, 400, f, cfg)
			if dialer.Injected() != 1 {
				t.Fatalf("armed %d faults, want 1", dialer.Injected())
			}
			checkExactlyOnce(t, d, 2, 400)
			restarts, reconnects := 0, 0
			for _, s := range stats {
				restarts += s.Restarts
				reconnects += s.Reconnects
			}
			if reconnects == 0 {
				t.Error("injected reset never exercised the reconnect path")
			}
			if restarts != 0 {
				t.Errorf("sender recorded %d group restarts, want pure per-target recovery", restarts)
			}
			if got := env.coord.Restarts(job); got != 0 {
				t.Errorf("coordinator counted %d group restarts, want 0", got)
			}
		})
	}
}

// TestConnStallHeldByFlowControl: a stalled connection delays but does not
// fail the transfer — the write blocks for the stall, resumes, and no
// recovery machinery runs.
func TestConnStallDeliversWithoutRecovery(t *testing.T) {
	env := newTransferEnv(t)
	f := &InputFormat{CoordAddr: env.coordAddr, Job: "jstall", AcceptTimeout: 5 * time.Second}
	dialer := fault.NewDialer(7, fault.DialerConfig{
		MaxFaults: 1,
		Ops:       []fault.Op{fault.Stall},
		MaxByte:   1 << 10,
		StallFor:  150 * time.Millisecond,
	})
	cfg := DefaultSenderConfig()
	cfg.Dial = dialer.Dial
	cfg.BlockRows = 64
	d, stats := env.runTransfer(t, "jstall", 2, 2, 300, f, cfg)
	checkExactlyOnce(t, d, 2, 300)
	for _, s := range stats {
		if s.Restarts != 0 || s.Reconnects != 0 {
			t.Errorf("stall triggered recovery (restarts=%d reconnects=%d); want none",
				s.Restarts, s.Reconnects)
		}
	}
}

// coordClient is a minimal raw JSON-lines client for coordinator protocol
// tests that need behaviors the sender never exercises (silent workers,
// duplicate registrations).
type coordClient struct {
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
}

func dialCoord(t *testing.T, addr string) *coordClient {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &coordClient{conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(conn)}
}

func (c *coordClient) send(t *testing.T, msg message) {
	t.Helper()
	if err := c.enc.Encode(msg); err != nil {
		t.Fatal(err)
	}
}

func (c *coordClient) recv(t *testing.T) message {
	t.Helper()
	var reply message
	if err := c.conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := c.dec.Decode(&reply); err != nil {
		t.Fatal(err)
	}
	return reply
}

// TestLeaseExpiryFencesHungWorker: a registered worker that stops
// heartbeating loses its lease — the coordinator severs its parked
// connection and counts the expiry — while a worker that keeps
// heartbeating is untouched. This is the hung-not-disconnected detection
// a pure read-EOF check cannot provide. The lease is an hour, so the
// coordinator's own ticker never fires; the test presents expireLeases
// with the instant at which exactly the silent worker's lease has lapsed.
func TestLeaseExpiryFencesHungWorker(t *testing.T) {
	coord := NewCoordinator(nil)
	coord.LeaseDuration = time.Hour
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()

	reg := func(worker int) *coordClient {
		c := dialCoord(t, addr)
		c.send(t, message{Type: "register_sql", Job: "jlease", Worker: worker,
			NumWorkers: 3, Command: "svm", Schema: "id:int", K: 1})
		return c
	}
	hung := reg(0)
	live := reg(1)

	// Renew worker 1's lease until the coordinator has seen both
	// registrations and a heartbeat newer than worker 0's registration;
	// worker 0 stays silent. The socket's own backpressure paces the loop.
	var hungBeat time.Time
	for {
		live.send(t, message{Type: "heartbeat", Job: "jlease", Worker: 1})
		coord.mu.Lock()
		js := coord.job("jlease")
		w0, w1 := js.sql[0], js.sql[1]
		ready := w0 != nil && w1 != nil && w1.lastBeat.After(w0.lastBeat)
		if ready {
			hungBeat = w0.lastBeat
		}
		coord.mu.Unlock()
		if ready {
			break
		}
	}
	coord.expireLeases(hungBeat.Add(coord.LeaseDuration + time.Nanosecond))

	if got := coord.ExpiredLeases("jlease"); got != 1 {
		t.Fatalf("expired leases = %d, want 1 (only the silent worker)", got)
	}
	// The hung worker's parked connection must be severed...
	if err := hung.conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := hung.conn.Read(make([]byte, 1)); err == nil {
		t.Error("hung worker's connection still open after lease expiry")
	}
	// ...while the heartbeating worker stays parked (read must time out,
	// not observe a close).
	if err := live.conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := live.conn.Read(make([]byte, 1)); err == nil {
		t.Error("live worker unexpectedly received data")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Errorf("live worker's connection severed: %v", err)
	}
}

// TestUnparkedSQLWorkerGetsNoMatches: a SQL worker whose parked
// connection has closed is still counted as registered (get_splits and
// register_ml keep answering), but a later register_ml completing its group
// must not dispatch matches onto the dead connection.
func TestUnparkedSQLWorkerGetsNoMatches(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	coord := NewCoordinator(nil)
	coord.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()

	parked := func() bool {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		sw := coord.job("junpark").sql[0]
		return sw != nil && sw.conn != nil
	}
	waitFor := func(want bool, what string) {
		for deadline := time.Now().Add(5 * time.Second); parked() != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("sql worker never %s", what)
			}
		}
	}
	sql := dialCoord(t, addr)
	sql.send(t, message{Type: "register_sql", Job: "junpark", Worker: 0,
		NumWorkers: 1, Command: "svm", Schema: "id:int", K: 1})
	waitFor(true, "parked")
	if err := sql.conn.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(false, "unparked")

	ml := dialCoord(t, addr)
	ml.send(t, message{Type: "register_ml", Job: "junpark", Split: 0,
		Listen: "127.0.0.1:11111", Addr: "node1"})
	if reply := ml.recv(t); reply.Type != "ok" {
		t.Fatalf("register_ml reply %q: %s", reply.Type, reply.Error)
	}
	// The coordinator closes the connection once the handler, dispatch
	// attempt included, has returned.
	if _, err := ml.conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("register_ml connection carried more than its reply")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, l := range lines {
		if strings.Contains(l, "matched sql worker") {
			t.Errorf("dispatched to an unparked worker: %q", l)
		}
	}
}

// failingWriter fails every write, as a connection the peer has reset.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("connection reset by peer") }

// TestFailedDispatchRearmsWorker: when the matches message cannot be
// written to a parked SQL worker, the coordinator logs no match, forgets
// the dead waiter and re-arms dispatch, so the worker's next register_sql
// gets its matches without another register_ml.
func TestFailedDispatchRearmsWorker(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	coord := NewCoordinator(nil)
	coord.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()

	register := message{Type: "register_sql", Job: "jfail", Worker: 0,
		NumWorkers: 1, Command: "svm", Schema: "id:int", K: 1}
	first := dialCoord(t, addr)
	first.send(t, register)
	broken := json.NewEncoder(failingWriter{})
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		coord.mu.Lock()
		js := coord.job("jfail")
		parked := js.sql[0] != nil && js.sql[0].enc != nil
		if parked {
			js.sql[0].enc = broken // the parked connection's writes now fail
		}
		coord.mu.Unlock()
		if parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sql worker never parked")
		}
	}

	ml := dialCoord(t, addr)
	ml.send(t, message{Type: "register_ml", Job: "jfail", Split: 0,
		Listen: "127.0.0.1:11111", Addr: "node1"})
	if reply := ml.recv(t); reply.Type != "ok" {
		t.Fatalf("register_ml reply %q: %s", reply.Type, reply.Error)
	}
	// The coordinator closes the connection once the handler, dispatch
	// attempt included, has returned.
	if _, err := ml.conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("register_ml connection carried more than its reply")
	}
	mu.Lock()
	for _, l := range lines {
		if strings.Contains(l, "matched sql worker") {
			t.Errorf("failed dispatch logged as a match: %q", l)
		}
	}
	mu.Unlock()
	coord.mu.Lock()
	js := coord.job("jfail")
	waiter := js.sql[0].enc
	coord.mu.Unlock()
	if waiter != nil {
		t.Errorf("after the failed dispatch: waiter cleared = %t; want true", waiter == nil)
	}

	// The worker's dead connection closes, and it registers afresh.
	if err := first.conn.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		coord.mu.Lock()
		parked := coord.job("jfail").sql[0].conn != nil
		coord.mu.Unlock()
		if !parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sql worker never unparked")
		}
	}
	sql := dialCoord(t, addr)
	sql.send(t, register)
	if reply := sql.recv(t); reply.Type != "matches" || len(reply.Targets) != 1 {
		t.Fatalf("re-registered sql worker got %q with %d targets, want matches with 1", reply.Type, len(reply.Targets))
	}
}

// stopWithin runs coord.Stop and reports whether it returned within d. On
// timeout it closes the given client connections, so a Stop blocked on
// them returns and the test fails instead of wedging the suite.
func stopWithin(t *testing.T, coord *Coordinator, d time.Duration, clients ...*coordClient) bool {
	t.Helper()
	done := make(chan struct{})
	go func() {
		coord.Stop()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
	}
	for _, c := range clients {
		_ = c.conn.Close()
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Error("Stop still blocked after its peers closed")
	}
	return false
}

// TestStopSeversReplacedParkedConnection: a SQL worker that re-registers on
// a new connection while its first one stays open leaves two parked
// connections behind; Stop must sever both rather than wait for the peer
// holding the replaced one to hang up.
func TestStopSeversReplacedParkedConnection(t *testing.T) {
	coord := NewCoordinator(nil)
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	register := message{Type: "register_sql", Job: "jstop", Worker: 0,
		NumWorkers: 1, Command: "svm", Schema: "id:int", K: 1}
	first := dialCoord(t, addr)
	first.send(t, register)
	second := dialCoord(t, addr)
	second.send(t, register)
	// The second registration counts as a restart once the first one
	// launched the job, which is when both connections are parked.
	for deadline := time.Now().Add(5 * time.Second); coord.Restarts("jstop") != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			stopWithin(t, coord, time.Second, first, second)
			t.Fatal("the coordinator never saw the re-registration")
		}
	}
	if !stopWithin(t, coord, 3*time.Second, first, second) {
		t.Fatal("Stop did not return within 3s with a replaced parked connection open")
	}
}

// TestLeaseExpiryKeepsWorkerRegistered: revoking a hung worker's lease
// severs its parked connection but does not unregister it, so the job's ML
// side keeps being answered: a register_ml after the expiry gets its ok at
// once instead of waiting for a registration that is already complete.
func TestLeaseExpiryKeepsWorkerRegistered(t *testing.T) {
	launched := make(chan struct{})
	coord := NewCoordinator(func(JobSpec) { close(launched) })
	coord.LeaseDuration = time.Hour
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()

	for w := 0; w < 2; w++ {
		dialCoord(t, addr).send(t, message{Type: "register_sql", Job: "jkeep", Worker: w,
			NumWorkers: 2, Command: "svm", Schema: "id:int", K: 1})
	}
	select {
	case <-launched:
	case <-time.After(5 * time.Second):
		t.Fatal("the job never launched")
	}
	// Both registrations are in, so this instant is past worker 0's lease
	// (and worker 1's: neither heartbeats).
	coord.expireLeases(time.Now().Add(coord.LeaseDuration + time.Nanosecond))
	if got := coord.ExpiredLeases("jkeep"); got != 2 {
		t.Fatalf("expired leases = %d, want 2", got)
	}

	ml := dialCoord(t, addr)
	ml.send(t, message{Type: "register_ml", Job: "jkeep", Split: 1,
		Listen: "127.0.0.1:11111", Addr: "node1"})
	if err := ml.conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	var reply message
	if err := ml.dec.Decode(&reply); err != nil {
		t.Fatalf("register_ml after lease expiry: %v", err)
	}
	if reply.Type != "ok" {
		t.Fatalf("register_ml after lease expiry replied %q: %s", reply.Type, reply.Error)
	}
}

// TestEpochFencing: every register_ml bumps the split's epoch, get_target
// serves the latest registration, and unknown splits are an error (the
// sender's backoff loop absorbs it rather than parking forever).
func TestEpochFencing(t *testing.T) {
	coord := NewCoordinator(nil)
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()

	sql := dialCoord(t, addr)
	sql.send(t, message{Type: "register_sql", Job: "jepoch", Worker: 0,
		NumWorkers: 1, Command: "svm", Schema: "id:int", K: 1})

	register := func(listen string) uint32 {
		c := dialCoord(t, addr)
		c.send(t, message{Type: "register_ml", Job: "jepoch", Split: 0,
			Listen: listen, Addr: "node1"})
		reply := c.recv(t)
		if reply.Type != "ok" {
			t.Fatalf("register_ml reply %q: %s", reply.Type, reply.Error)
		}
		return reply.Epoch
	}
	if e := register("127.0.0.1:11111"); e != 1 {
		t.Fatalf("first registration epoch = %d, want 1", e)
	}
	// A re-executed reader registers again: new listener, bumped epoch.
	if e := register("127.0.0.1:22222"); e != 2 {
		t.Fatalf("second registration epoch = %d, want 2", e)
	}

	gt := dialCoord(t, addr)
	gt.send(t, message{Type: "get_target", Job: "jepoch", Split: 0})
	reply := gt.recv(t)
	if reply.Type != "target" || len(reply.Targets) != 1 {
		t.Fatalf("get_target reply %q (%d targets): %s", reply.Type, len(reply.Targets), reply.Error)
	}
	got := reply.Targets[0]
	if got.Epoch != 2 || got.Listen != "127.0.0.1:22222" {
		t.Errorf("get_target = epoch %d listen %s, want the latest registration (2, 127.0.0.1:22222)", got.Epoch, got.Listen)
	}

	bad := dialCoord(t, addr)
	bad.send(t, message{Type: "get_target", Job: "jepoch", Split: 9})
	if reply := bad.recv(t); reply.Type != "error" {
		t.Errorf("get_target for unknown split replied %q, want error", reply.Type)
	}
}

package stream

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlml/internal/cluster"
	"sqlml/internal/dfs"
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/mapred"
	"sqlml/internal/ml"
	"sqlml/internal/row"
	"sqlml/internal/sqlengine"
	"sqlml/internal/transform"
)

func streamSchema() row.Schema {
	return row.MustSchema(
		row.Column{Name: "id", Type: row.TypeInt},
		row.Column{Name: "x", Type: row.TypeFloat},
		row.Column{Name: "label", Type: row.TypeInt},
	)
}

func genRows(worker, count int) []row.Row {
	rows := make([]row.Row, count)
	for i := range rows {
		id := int64(worker*1_000_000 + i)
		rows[i] = row.Row{row.Int(id), row.Float(float64(i) / 2), row.Int(int64(i % 2))}
	}
	return rows
}

// transferEnv wires a coordinator, n senders, and an ML-side ingestion.
// cost, when set, is the senders' cost model; ingest, when set, replaces
// ml.Ingest as the receiving side.
type transferEnv struct {
	topo      *cluster.Topology
	coord     *Coordinator
	coordAddr string
	launched  chan JobSpec
	cost      *cluster.CostModel
	ingest    func(hadoopfmt.InputFormat) (*ml.Dataset, error)
}

func newTransferEnv(t *testing.T) *transferEnv {
	t.Helper()
	env := &transferEnv{
		topo:     cluster.NewTopology(5),
		launched: make(chan JobSpec, 8),
	}
	env.coord = NewCoordinator(func(spec JobSpec) { env.launched <- spec })
	addr, err := env.coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.coord.Stop)
	env.coordAddr = addr
	return env
}

// runTransfer streams rowsPerWorker rows from n senders and ingests them
// through fmt (already configured with the coordinator address).
func (env *transferEnv) runTransfer(t *testing.T, job string, n, k, rowsPerWorker int, f hadoopfmt.InputFormat, cfg SenderConfig) (*ml.Dataset, []*SenderStats) {
	t.Helper()

	type ingestResult struct {
		d   *ml.Dataset
		err error
	}
	ingestCh := make(chan ingestResult, 1)
	go func() {
		spec := <-env.launched
		if spec.Command != "svm" {
			ingestCh <- ingestResult{err: fmt.Errorf("unexpected command %q", spec.Command)}
			return
		}
		var d *ml.Dataset
		var err error
		if env.ingest != nil {
			d, err = env.ingest(f)
		} else {
			d, err = ml.Ingest(f, ml.IngestOptions{
				LabelCol: "label",
				Nodes:    env.topo.Nodes(),
			})
		}
		ingestCh <- ingestResult{d: d, err: err}
	}()

	stats := make([]*SenderStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stats[w], errs[w] = Send(SendRequest{
				CoordAddr:  env.coordAddr,
				Job:        job,
				Command:    "svm",
				Worker:     w,
				NumWorkers: n,
				K:          k,
				Node:       env.topo.Node(w + 1),
				Topo:       env.topo,
				Cost:       env.cost,
				Schema:     streamSchema(),
				Rows:       genRows(w, rowsPerWorker),
				Config:     cfg,
			})
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("sender %d: %v", w, err)
		}
	}
	res := <-ingestCh
	if res.err != nil {
		t.Fatalf("ingest: %v", res.err)
	}
	return res.d, stats
}

// checkExactlyOnce verifies every expected id arrived exactly once (the id
// rides in feature position 0).
func checkExactlyOnce(t *testing.T, d *ml.Dataset, n, rowsPerWorker int) {
	t.Helper()
	seen := make(map[int64]int)
	for _, p := range d.All() {
		seen[int64(p.Features[0])]++
	}
	if len(seen) != n*rowsPerWorker {
		t.Fatalf("distinct rows = %d, want %d", len(seen), n*rowsPerWorker)
	}
	for w := 0; w < n; w++ {
		for i := 0; i < rowsPerWorker; i++ {
			id := int64(w*1_000_000 + i)
			if seen[id] != 1 {
				t.Fatalf("row %d delivered %d times", id, seen[id])
			}
		}
	}
}

func TestTransferEndToEnd(t *testing.T) {
	env := newTransferEnv(t)
	f := &InputFormat{CoordAddr: env.coordAddr, Job: "j1"}
	d, stats := env.runTransfer(t, "j1", 4, 1, 200, f, DefaultSenderConfig())
	checkExactlyOnce(t, d, 4, 200)
	if len(d.Parts) != 4 {
		t.Errorf("partitions = %d, want 4 (one per split)", len(d.Parts))
	}
	var totalSent int64
	for _, s := range stats {
		totalSent += s.RowsSent
		if s.Restarts != 0 {
			t.Errorf("unexpected restarts: %+v", s)
		}
		// Block framing coalesces rows into multi-row frames.
		if s.FramesSent == 0 || s.FramesSent >= s.RowsSent {
			t.Errorf("block framing inactive: frames=%d rows=%d", s.FramesSent, s.RowsSent)
		}
		// The columnar frames undercut the rows' row-encoded size.
		if s.RawBytes <= s.WireBytes {
			t.Errorf("per-column encodings absent: raw=%d wire=%d", s.RawBytes, s.WireBytes)
		}
	}
	if totalSent != 800 {
		t.Errorf("rows sent = %d", totalSent)
	}
}

func TestTransferSplitFactorK(t *testing.T) {
	env := newTransferEnv(t)
	f := &InputFormat{CoordAddr: env.coordAddr, Job: "jk"}
	d, _ := env.runTransfer(t, "jk", 2, 3, 99, f, DefaultSenderConfig())
	checkExactlyOnce(t, d, 2, 99)
	if len(d.Parts) != 6 {
		t.Errorf("partitions = %d, want 6 (m = n*k = 2*3)", len(d.Parts))
	}
}

// TestMapReduceOverStreamWithMoreSplitsThanSlots: a MapReduce job reading
// the stream opens all M = N·k splits at once, however few its task nodes.
// The coordinator matches a SQL worker only after all k of its readers
// have registered, so a job that queued map tasks behind running ones
// would leave its running readers waiting for a match that never comes.
// Here 18 splits run on 4 task nodes.
func TestMapReduceOverStreamWithMoreSplitsThanSlots(t *testing.T) {
	env := newTransferEnv(t)
	const n, k, rowsPerWorker = 2, 9, 200
	fs := dfs.New(env.topo, dfs.Config{BlockSize: 4096, Replication: 2})
	f := &InputFormat{CoordAddr: env.coordAddr, Job: "mr-wide", AcceptTimeout: 2 * time.Second}
	type trainResult struct {
		model *ml.NaiveBayesModel
		err   error
	}
	trained := make(chan trainResult, 1)
	go func() {
		m, err := ml.TrainNaiveBayesMR(mapred.Cluster{Topo: env.topo, FS: fs, TaskNodes: []int{1, 2, 3, 4}},
			f, ml.IngestOptions{LabelCol: "label"}, 1, "/models/nb")
		trained <- trainResult{m, err}
	}()

	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = Send(SendRequest{
				CoordAddr:  env.coordAddr,
				Job:        "mr-wide",
				Command:    "naive-bayes",
				Worker:     w,
				NumWorkers: n,
				K:          k,
				Node:       env.topo.Node(w + 1),
				Topo:       env.topo,
				Schema:     streamSchema(),
				Rows:       genRows(w, rowsPerWorker),
				Config:     DefaultSenderConfig(),
			})
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("sender %d: %v", w, err)
		}
	}
	res := <-trained
	if res.err != nil {
		t.Fatalf("MapReduce training: %v", res.err)
	}
	if len(res.model.Labels) != 2 {
		t.Errorf("model has classes %v, want both labels 0 and 1", res.model.Labels)
	}
}

func TestSplitsCarrySQLWorkerLocality(t *testing.T) {
	env := newTransferEnv(t)
	f := &InputFormat{CoordAddr: env.coordAddr, Job: "jloc"}
	go func() {
		<-env.launched
		splits, err := f.Splits(0)
		if err != nil {
			t.Error(err)
			return
		}
		for i, sp := range splits {
			want := env.topo.Node(i/2 + 1).Addr
			locs := sp.Locations()
			if len(locs) != 1 || locs[0] != want {
				t.Errorf("split %d locations = %v, want [%s]", i, locs, want)
			}
			// Consume to unblock the senders.
			rr, err := f.Open(sp, env.topo.Node(i/2+1))
			if err != nil {
				t.Error(err)
				return
			}
			go func() {
				for {
					_, ok, err := rr.Next()
					if err != nil || !ok {
						return
					}
				}
			}()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if _, err := Send(SendRequest{
				CoordAddr: env.coordAddr, Job: "jloc", Command: "svm",
				Worker: w, NumWorkers: 2, K: 2,
				Node: env.topo.Node(w + 1), Topo: env.topo,
				Schema: streamSchema(), Rows: genRows(w, 10),
				Config: DefaultSenderConfig(),
			}); err != nil {
				t.Errorf("sender %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
}

func TestSchemaPropagatedThroughCoordinator(t *testing.T) {
	env := newTransferEnv(t)
	f := &InputFormat{CoordAddr: env.coordAddr, Job: "jschema"}
	d, _ := env.runTransfer(t, "jschema", 1, 1, 10, f, DefaultSenderConfig())
	if d.NumFeatures != 2 {
		t.Errorf("features = %d (schema did not arrive)", d.NumFeatures)
	}
	s, err := f.Schema()
	if err != nil || !s.Equal(streamSchema()) {
		t.Errorf("schema = %v, %v", s, err)
	}
}

func TestSlowConsumerSpillsToDisk(t *testing.T) {
	env := newTransferEnv(t)
	f := &InputFormat{
		CoordAddr:    env.coordAddr,
		Job:          "jspill",
		ConsumeDelay: 50 * time.Microsecond,
	}
	cfg := DefaultSenderConfig()
	cfg.QueueBytes = 512 // about two 16-row frames
	cfg.BlockRows = 16   // many small blocks, so the budget fills
	cfg.SpillDir = t.TempDir()
	// Enough volume to saturate the kernel socket buffers, so backpressure
	// reaches the sender's log and the spill path engages.
	d, stats := env.runTransfer(t, "jspill", 2, 1, 1500, f, cfg)
	// checkExactlyOnce validates content, so spilled blocks round-tripped
	// through the disk file intact.
	checkExactlyOnce(t, d, 2, 1500)
	var spilled int64
	for _, s := range stats {
		spilled += s.SpilledBytes
		if s.FramesSent == 0 || s.FramesSent >= s.RowsSent {
			t.Errorf("spill path lost block framing: frames=%d rows=%d", s.FramesSent, s.RowsSent)
		}
	}
	if spilled == 0 {
		t.Error("slow consumer did not trigger spilling")
	}
}

// TestCreditUnitIsTheSenders: the reader grants credits in the unit the
// sender names in its start reply, so a receive buffer larger or smaller
// than the sender's send buffer still drains the transfer. Counting in its
// own buffer size, a reader with the larger buffer granted too few credits
// and the sender's window stayed shut. Both sides run off the test's
// goroutine, so a stall fails the test at the deadline instead of hanging.
func TestCreditUnitIsTheSenders(t *testing.T) {
	const rows = 20000
	for _, recv := range []int{16 << 10, 1 << 10} {
		env := newTransferEnv(t)
		job := fmt.Sprintf("jcredit%d", recv)
		f := &InputFormat{CoordAddr: env.coordAddr, Job: job, ReceiveBufferSize: recv}
		type ingestResult struct {
			d   *ml.Dataset
			err error
		}
		ingested := make(chan ingestResult, 1)
		go func() {
			<-env.launched
			d, err := ml.Ingest(f, ml.IngestOptions{LabelCol: "label", Nodes: env.topo.Nodes()})
			ingested <- ingestResult{d, err}
		}()
		sent := make(chan error, 1)
		go func() {
			_, err := Send(SendRequest{CoordAddr: env.coordAddr, Job: job, Command: "svm", NumWorkers: 1, K: 1,
				Node: env.topo.Node(1), Topo: env.topo, Schema: streamSchema(), Rows: genRows(0, rows),
				Config: DefaultSenderConfig()})
			sent <- err
		}()
		deadline := time.After(20 * time.Second)
		stalled := func() {
			t.Fatalf("%d-byte receive buffer against a %d-byte send buffer: transfer stalled",
				recv, DefaultSenderConfig().BufferSize)
		}
		select {
		case err := <-sent:
			if err != nil {
				t.Fatalf("send: %v", err)
			}
		case <-deadline:
			stalled()
		}
		select {
		case res := <-ingested:
			if res.err != nil {
				t.Fatalf("ingest: %v", res.err)
			}
			checkExactlyOnce(t, res.d, 1, rows)
		case <-deadline:
			stalled()
		}
	}
}

// TestReaderFacesInterleave: Next and NextColBatch interleave freely on a
// stream reader (the hadoopfmt contract). Next holds a whole frame, so a
// NextColBatch after it hands over that frame's remaining rows before
// reading the next one, and no row is lost or served twice.
func TestReaderFacesInterleave(t *testing.T) {
	env := newTransferEnv(t)
	f := &InputFormat{CoordAddr: env.coordAddr, Job: "jfaces", AcceptTimeout: 5 * time.Second}
	cfg := DefaultSenderConfig()
	cfg.BlockRows = 64
	sent := make(chan error, 1)
	go func() {
		_, err := Send(SendRequest{
			CoordAddr: env.coordAddr, Job: "jfaces", Command: "svm",
			Worker: 0, NumWorkers: 1, K: 1,
			Node: env.topo.Node(1), Topo: env.topo,
			Schema: streamSchema(), Rows: genRows(0, 300), Config: cfg,
		})
		sent <- err
	}()
	<-env.launched
	splits, err := f.Splits(0)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := f.Open(splits[0], env.topo.Node(1))
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for i := 0; i < 10; i++ {
		r, ok, err := rr.Next()
		if err != nil || !ok {
			t.Fatalf("Next %d: ok=%v err=%v", i, ok, err)
		}
		ids = append(ids, r[0].AsInt())
	}
	cr := rr.(hadoopfmt.ColBatchRecordReader)
	dst := row.NewColBatch(nil)
	for first := true; ; first = false {
		n, ok, err := cr.NextColBatch(dst)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if first && n != 64-10 {
			t.Errorf("first batch after 10 rows of Next = %d rows, want the frame's other %d", n, 64-10)
		}
		for _, r := range dst.Rows(nil) {
			ids = append(ids, r[0].AsInt())
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("row %d has id %d (%d rows read, want 300 in order)", i, id, len(ids))
		}
	}
	if len(ids) != 300 {
		t.Fatalf("read %d rows, want 300", len(ids))
	}
}

// TestNetChargedPerFlushedBuffer pins the network cost boundary: ChargeNet
// pays NetLatency per call, so the writer charges once per flushed send
// buffer, never per frame — including the flush that precedes a credit
// wait.
func TestNetChargedPerFlushedBuffer(t *testing.T) {
	conn, peer := net.Pipe()
	defer func() { _ = conn.Close(); _ = peer.Close() }()
	go func() { _, _ = io.Copy(io.Discard, peer) }()
	topo := cluster.NewTopology(2)
	cost := &cluster.CostModel{NetLatency: time.Second}
	tc := &targetChannel{
		conn:     conn,
		w:        bufio.NewWriterSize(conn, 4096),
		cfg:      SenderConfig{BufferSize: 4096},
		cost:     cost,
		fromNode: topo.Node(0),
		toNode:   topo.Node(1),
		credits:  make(chan int, 1),
	}
	tc.credits <- 4096 // one receive buffer consumed: lets the tenth frame into the window
	frame := make([]byte, 1000)
	for i := 0; i < 10; i++ {
		if err := tc.send(frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := tc.flush(); err != nil {
		t.Fatal(err)
	}
	// Three flushes: the send buffer full at 5 000 pending bytes, the
	// window (8 192) reached before the tenth frame, and the last frame.
	if st := cost.Stats(); st.NetBytes != 10000 || st.SimulatedTime != 3*time.Second {
		t.Errorf("net charged %d bytes over %v of latency, want 10000 bytes over 3 flushes (3s)", st.NetBytes, st.SimulatedTime)
	}
}

// TestMLWorkerFailureRecoversExactlyOnce: an injected ML worker crash is
// absorbed by partial-failure recovery — the crashed task re-executes with
// a fresh listener and epoch, the sender's per-target reconnect finds it
// via get_target and resends that slot from the spool, and no §6 group
// restart runs.
func TestMLWorkerFailureRecoversExactlyOnce(t *testing.T) {
	env := newTransferEnv(t)
	var once sync.Once
	fail := false
	f := &InputFormat{
		CoordAddr: env.coordAddr,
		Job:       "jfail",
		Inject: func(split, rowsRead int) bool {
			if split == 1 && rowsRead == 50 {
				failed := false
				once.Do(func() { failed = true })
				if failed {
					fail = true
					return true
				}
			}
			return false
		},
		AcceptTimeout: 5 * time.Second,
	}
	cfg := DefaultSenderConfig()
	cfg.MaxRestarts = 8
	cfg.BlockRows = 64 // several blocks per slot, so replay spans frames
	d, stats := env.runTransfer(t, "jfail", 2, 2, 300, f, cfg)
	if !fail {
		t.Fatal("injection never fired")
	}
	checkExactlyOnce(t, d, 2, 300)
	restarts, reconnects := 0, 0
	for _, s := range stats {
		restarts += s.Restarts
		reconnects += s.Reconnects
	}
	if reconnects == 0 {
		t.Error("no per-target reconnects recorded despite injected failure")
	}
	if restarts != 0 {
		t.Errorf("crash escalated to %d group restarts; want per-target recovery only", restarts)
	}
	if got := env.coord.Restarts("jfail"); got != 0 {
		t.Errorf("coordinator counted %d group restarts, want 0", got)
	}
}

// TestMLWorkerFailureEscalatesToRestart: with per-target recovery disabled
// the same crash falls back to the paper's §6 group restart, still
// delivering exactly-once.
func TestMLWorkerFailureEscalatesToRestart(t *testing.T) {
	env := newTransferEnv(t)
	var once sync.Once
	f := &InputFormat{
		CoordAddr: env.coordAddr,
		Job:       "jesc",
		Inject: func(split, rowsRead int) bool {
			fired := false
			if split == 1 && rowsRead == 50 {
				once.Do(func() { fired = true })
			}
			return fired
		},
		AcceptTimeout: 5 * time.Second,
	}
	cfg := DefaultSenderConfig()
	cfg.MaxRestarts = 8
	cfg.ReconnectBudget = -1 // §6 original behavior: every failure escalates
	cfg.BlockRows = 64
	d, stats := env.runTransfer(t, "jesc", 2, 2, 300, f, cfg)
	checkExactlyOnce(t, d, 2, 300)
	restarts := 0
	for _, s := range stats {
		restarts += s.Restarts
	}
	if restarts == 0 {
		t.Error("no sender restarts recorded despite injected failure")
	}
	if got := env.coord.Restarts("jesc"); got == 0 {
		t.Error("coordinator restart counter never moved")
	}
}

func TestSenderFailsWithoutMLJob(t *testing.T) {
	env := newTransferEnv(t)
	cfg := DefaultSenderConfig()
	cfg.DialTimeout = 300 * time.Millisecond
	cfg.MaxRestarts = 1
	_, err := Send(SendRequest{
		CoordAddr: env.coordAddr, Job: "jnoml", Command: "svm",
		Worker: 0, NumWorkers: 1, K: 1,
		Node: env.topo.Node(1), Topo: env.topo,
		Schema: streamSchema(), Rows: genRows(0, 5),
		Config: cfg,
	})
	if err == nil {
		t.Error("send without ML workers should time out")
	}
}

// TestEngineUDFStreamsQueryResult is the full In-SQL integration: the
// stream_send table UDF pushes a query result from the SQL engine into the
// ML engine, never touching the DFS.
func TestEngineUDFStreamsQueryResult(t *testing.T) {
	topo := cluster.NewTopology(5)
	eng, err := sqlengine.New(topo, nil, sqlengine.Config{HeadNodeID: 0, WorkerNodeIDs: []int{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := transform.RegisterUDFs(eng); err != nil {
		t.Fatal(err)
	}
	if err := RegisterSenderUDF(eng, DefaultSenderConfig()); err != nil {
		t.Fatal(err)
	}
	schema := row.MustSchema(
		row.Column{Name: "age", Type: row.TypeInt},
		row.Column{Name: "amount", Type: row.TypeFloat},
		row.Column{Name: "abandoned", Type: row.TypeInt},
	)
	var rows []row.Row
	for i := 0; i < 120; i++ {
		rows = append(rows, row.Row{row.Int(int64(20 + i%50)), row.Float(float64(i)), row.Int(int64(1 + i%2))})
	}
	if err := eng.LoadTable("prepared", schema, rows); err != nil {
		t.Fatal(err)
	}

	type mlResult struct {
		d   *ml.Dataset
		err error
	}
	resCh := make(chan mlResult, 1)
	coord := NewCoordinator(nil)
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()
	coord.launcher = func(spec JobSpec) {
		f := &InputFormat{CoordAddr: addr, Job: spec.Job}
		d, err := ml.Ingest(f, ml.IngestOptions{
			LabelCol:       "abandoned",
			LabelTransform: func(v float64) float64 { return v - 1 },
			Nodes:          topo.Nodes(),
		})
		resCh <- mlResult{d, err}
	}

	res, err := eng.Query(fmt.Sprintf(
		"SELECT * FROM TABLE(stream_send(prepared, '%s', 'udfjob', 'svm', 2))", addr))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 4 {
		t.Errorf("sender summary rows = %d, want 4 (one per SQL worker)", res.NumRows())
	}
	var sent, frames int64
	for _, r := range res.Rows() {
		sent += r[1].AsInt()
		frames += r[5].AsInt() // frames_sent
	}
	if sent != 120 {
		t.Errorf("rows sent = %d, want 120", sent)
	}
	if frames == 0 || frames >= sent {
		t.Errorf("frames_sent = %d (rows_sent %d); UDF schema should surface block coalescing", frames, sent)
	}

	mlRes := <-resCh
	if mlRes.err != nil {
		t.Fatal(mlRes.err)
	}
	if mlRes.d.NumRows() != 120 || mlRes.d.NumFeatures != 2 {
		t.Errorf("ingested %d rows, %d features", mlRes.d.NumRows(), mlRes.d.NumFeatures)
	}
	if len(mlRes.d.Parts) != 8 {
		t.Errorf("ML partitions = %d, want 8 (4 workers x k=2)", len(mlRes.d.Parts))
	}
	// The stream is good enough to train on.
	model, err := ml.TrainSVMWithSGD(mlRes.d, ml.DefaultSGD())
	if err != nil {
		t.Fatal(err)
	}
	if model == nil {
		t.Fatal("nil model")
	}
}

// TestEngineUDFBlockRowsAtOneTarget: with one target per worker (k = 1) the
// engine's stream_send still flushes a block every BlockRows rows, at
// exactly the row where the budget is reached, instead of staging whole
// input batches into one block.
func TestEngineUDFBlockRowsAtOneTarget(t *testing.T) {
	topo := cluster.NewTopology(5)
	eng, err := sqlengine.New(topo, nil, sqlengine.Config{HeadNodeID: 0, WorkerNodeIDs: []int{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSenderConfig()
	cfg.BlockRows = 8
	if err := RegisterSenderUDF(eng, cfg); err != nil {
		t.Fatal(err)
	}
	schema := row.MustSchema(
		row.Column{Name: "x", Type: row.TypeFloat},
		row.Column{Name: "label", Type: row.TypeInt},
	)
	const n = 4000
	rows := make([]row.Row, n)
	for i := range rows {
		rows[i] = row.Row{row.Float(float64(i)), row.Int(int64(i % 2))}
	}
	if err := eng.LoadTable("prepared", schema, rows); err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(nil)
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()
	ingested := make(chan error, 1)
	coord.launcher = func(spec JobSpec) {
		_, err := ml.Ingest(&InputFormat{CoordAddr: addr, Job: spec.Job}, ml.IngestOptions{LabelCol: "label", Nodes: topo.Nodes()})
		ingested <- err
	}
	res, err := eng.Query(fmt.Sprintf(
		"SELECT rows_sent, frames_sent FROM TABLE(stream_send(prepared, '%s', 'k1job', 'svm', 1))", addr))
	if err != nil {
		t.Fatal(err)
	}
	if err := <-ingested; err != nil {
		t.Fatal(err)
	}
	var sent, frames int64
	for _, r := range res.Rows() {
		rs, fs := r[0].AsInt(), r[1].AsInt()
		if want := (rs + int64(cfg.BlockRows) - 1) / int64(cfg.BlockRows); fs != want {
			t.Errorf("worker sent %d rows in %d frames, want %d frames of <= %d rows", rs, fs, want, cfg.BlockRows)
		}
		sent += rs
		frames += fs
	}
	if sent != n {
		t.Errorf("rows sent = %d, want %d", sent, n)
	}
	t.Logf("%d rows in %d frames", sent, frames)
}

func TestCoordinatorRejectsUnknownMessage(t *testing.T) {
	env := newTransferEnv(t)
	reply, err := controlExchange(t, env.coordAddr, []byte(`{"type":"bogus"}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != "error" || !strings.Contains(reply.Error, "bogus") {
		t.Fatalf("reply = %+v, want an error naming the message type", reply)
	}
}

// TestCoordinatorCrashRecovery exercises §6's "the coordinator service must
// be resilient itself": the coordinator dies while the SQL workers are
// parked waiting for their matches, losing all matchmaking state. A
// replacement coordinator comes up on the same address (the stable
// endpoint ZooKeeper would provide); the senders' retry loops re-register
// with it, the ML job runs against it, and the transfer completes
// exactly-once.
func TestCoordinatorCrashRecovery(t *testing.T) {
	topo := cluster.NewTopology(3)

	coord1 := NewCoordinator(nil)
	addr, err := coord1.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// The senders start first and park on coordinator 1 awaiting matches.
	cfg := DefaultSenderConfig()
	cfg.MaxRestarts = 25
	cfg.DialTimeout = 5 * time.Second
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = Send(SendRequest{
				CoordAddr: addr, Job: "jcrash", Command: "svm",
				Worker: w, NumWorkers: 2, K: 1,
				Node: topo.Node(w + 1), Topo: topo,
				Schema: streamSchema(), Rows: genRows(w, 120),
				Config: cfg,
			})
		}(w)
	}

	// Crash coordinator 1 mid-protocol and bring the replacement up on the
	// same address.
	time.Sleep(200 * time.Millisecond)
	coord1.Stop()
	coord2 := NewCoordinator(nil)
	for attempt := 0; ; attempt++ {
		if _, err = coord2.Start(addr); err == nil {
			break
		}
		if attempt > 100 {
			t.Fatalf("could not rebind coordinator address: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer coord2.Stop()

	// The ML job only ever talks to the replacement.
	f := &InputFormat{CoordAddr: addr, Job: "jcrash", AcceptTimeout: 2 * time.Second}
	d, err := ml.Ingest(f, ml.IngestOptions{LabelCol: "label", Nodes: topo.Nodes()})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("sender %d after coordinator failover: %v", w, err)
		}
	}
	checkExactlyOnce(t, d, 2, 120)
}

// TestConcurrentJobsThroughOneCoordinator runs two independent transfers
// through the same long-standing coordinator simultaneously — the service
// is shared infrastructure, not per-pipeline state.
func TestConcurrentJobsThroughOneCoordinator(t *testing.T) {
	env := newTransferEnv(t)
	type out struct {
		d   *ml.Dataset
		err error
	}
	results := make(chan out, 2)
	runJob := func(job string, n, rowsPer int) {
		f := &InputFormat{CoordAddr: env.coordAddr, Job: job}
		go func() {
			d, err := ml.Ingest(f, ml.IngestOptions{LabelCol: "label", Nodes: env.topo.Nodes()})
			results <- out{d, err}
		}()
		var wg sync.WaitGroup
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if _, err := Send(SendRequest{
					CoordAddr: env.coordAddr, Job: job, Command: "svm",
					Worker: w, NumWorkers: n, K: 1,
					Node: env.topo.Node(w + 1), Topo: env.topo,
					Schema: streamSchema(), Rows: genRows(w, rowsPer),
					Config: DefaultSenderConfig(),
				}); err != nil {
					t.Errorf("%s sender %d: %v", job, w, err)
				}
			}(w)
		}
		wg.Wait()
	}
	var jobs sync.WaitGroup
	jobs.Add(2)
	go func() { defer jobs.Done(); runJob("jobA", 2, 150) }()
	go func() { defer jobs.Done(); runJob("jobB", 3, 80) }()
	jobs.Wait()
	total := 0
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		total += r.d.NumRows()
	}
	if total != 2*150+3*80 {
		t.Errorf("total rows across jobs = %d, want %d", total, 2*150+3*80)
	}
}

package stream

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlml/internal/cluster"
	"sqlml/internal/fault"
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/ml"
	"sqlml/internal/sqlengine"
)

// TestFrameLogSpillsPastBudgetAndReadsBackInOrder: with no writer, appends
// past the budget keep the log's in-memory bytes at or below it, and one
// cursor then reads every entry back byte-identical and in order, from
// memory and from the spill file alike, and again from a rewind.
func TestFrameLogSpillsPastBudgetAndReadsBackInOrder(t *testing.T) {
	const budget = 1000
	dir := t.TempDir()
	l := &frameLog{budget: budget, dir: dir}
	var want [][]byte
	for i := 0; i < 40; i++ {
		buf := make([]byte, 40+(i*37)%200)
		for j := range buf {
			buf[j] = byte(i*7 + j)
		}
		want = append(want, bytes.Clone(buf))
		if err := l.append(buf, 1, 0); err != nil {
			t.Fatal(err)
		}
		// The log holds copies: the caller's buffer is free on return.
		for j := range buf {
			buf[j] = 0xff
		}
		inMem := 0
		for _, e := range l.entries {
			inMem += len(e.frame)
		}
		if inMem > budget || l.unsent != inMem {
			t.Fatalf("after %d appends: %d bytes in memory (unsent %d), budget %d", i+1, inMem, l.unsent, budget)
		}
	}
	if l.spilled == 0 {
		t.Fatal("no frame spilled past the budget")
	}
	l.seal()
	stop := make(chan struct{})
	readFrom := func(from int) {
		t.Helper()
		for i := from; i < len(want); i++ {
			got, err := l.next(stop)
			if err != nil || !bytes.Equal(got, want[i]) {
				t.Fatalf("entry %d read back as %d bytes (err %v), want %d bytes", i, len(got), err, len(want[i]))
			}
		}
		if _, err := l.next(stop); err != io.EOF {
			t.Fatalf("end of a sealed log: err = %v, want io.EOF", err)
		}
	}
	readFrom(0)
	if start, ok := l.rewind(10); !ok || start != 10 {
		t.Fatalf("rewind(10) = %d, %v", start, ok)
	}
	readFrom(10)
	if err := l.release(); err != nil {
		t.Fatal(err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("release left %d files in the spill dir", len(left))
	}
}

// sendOne streams input from one SQL worker to one split and ingests it
// through f.
func (env *transferEnv) sendOne(t *testing.T, job string, f *InputFormat, cfg SenderConfig, input sqlengine.ColBatchSource) (*ml.Dataset, *SenderStats, error) {
	t.Helper()
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
		Input: input, Config: cfg,
	})
	return <-ingested, stats, err
}

// stallFirstRow, called from an Inject hook, holds the reader at its first
// row until release closes, failing the test after 5 s.
func stallFirstRow(t *testing.T, release <-chan struct{}, rowsRead int) {
	if rowsRead != 1 {
		return
	}
	select {
	case <-release:
	case <-time.After(5 * time.Second):
		t.Error("the reader's stall was never released")
	}
}

// TestStalledReaderWithinBudgetNeverSpills: with one-row frames and the
// default config, a reader that stalls while 300 frames pile up behind the
// credit window holds them in memory, far inside the byte budget, so
// nothing spills and every row arrives once.
func TestStalledReaderWithinBudgetNeverSpills(t *testing.T) {
	const rows, produced = 400, 300
	env := newTransferEnv(t)
	gate := make(chan struct{})
	f := &InputFormat{
		CoordAddr: env.coordAddr, Job: "jstall", AcceptTimeout: 5 * time.Second,
		Inject: func(_, rowsRead int) bool {
			stallFirstRow(t, gate, rowsRead)
			return false
		},
	}
	cfg := DefaultSenderConfig()
	cfg.BlockRows = 1
	cfg.SpillDir = t.TempDir()
	src := &pacedSource{rows: genRows(0, rows), per: 10, after: produced / 10, gate: func() error {
		close(gate)
		return nil
	}}
	d, stats, err := env.sendOne(t, "jstall", f, cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.FailNow()
	}
	checkExactlyOnce(t, d, 1, rows)
	if stats.SpilledBytes != 0 {
		t.Errorf("spilled %d bytes with %d one-row frames behind a stalled reader", stats.SpilledBytes, produced)
	}
}

// TestSpilledFrameReachesReaderBeforeInputEnds: a spilled frame goes out as
// soon as the writer reaches it, not after the input ends. The reader
// stalls on its first row while the input produces 200 16-row frames
// against a budget of about four: the writer has ~39 frames in its credit
// window, four more stay in memory, the rest spill. The input then waits,
// before producing more, for the reader to consume frame 120 — spilled —
// and fails after 5 s.
func TestSpilledFrameReachesReaderBeforeInputEnds(t *testing.T) {
	const blockRows = 16
	const past, want, rows = 200 * blockRows, 120 * blockRows, 250 * blockRows
	env := newTransferEnv(t)
	gate, got := make(chan struct{}), make(chan struct{})
	var gotOnce sync.Once
	f := &InputFormat{
		CoordAddr: env.coordAddr, Job: "jspillsoon", AcceptTimeout: 5 * time.Second,
		Inject: func(_, rowsRead int) bool {
			stallFirstRow(t, gate, rowsRead)
			if rowsRead == want {
				gotOnce.Do(func() { close(got) })
			}
			return false
		},
	}
	cfg := DefaultSenderConfig()
	cfg.QueueBytes = 1 << 10 // about four 16-row frames
	cfg.BlockRows = blockRows
	cfg.SpillDir = t.TempDir()
	src := &pacedSource{rows: genRows(0, rows), per: blockRows, after: past / blockRows, gate: func() error {
		close(gate)
		select {
		case <-got:
			return nil
		case <-time.After(5 * time.Second):
			return errors.New("no spilled frame reached the reader before the input ended")
		}
	}}
	d, stats, err := env.sendOne(t, "jspillsoon", f, cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.FailNow()
	}
	checkExactlyOnce(t, d, 1, rows)
	if stats.SpilledBytes == 0 {
		t.Error("the stalled reader never made the log spill")
	}
}

// TestSpillFileRemovedWhenSendReturns: a slot's spill file lives with its
// log, and once Send returns SpillDir holds none — after a clean run, after
// a run whose slot reconnected, and after a run that exhausts MaxRestarts
// with its log over budget and no reader reachable.
func TestSpillFileRemovedWhenSendReturns(t *testing.T) {
	noSpillFiles := func(t *testing.T, dir string) {
		t.Helper()
		left, err := filepath.Glob(filepath.Join(dir, "sqlml-spill-*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Errorf("spill files left after Send returned: %v", left)
		}
	}
	spillyConfig := func(t *testing.T) SenderConfig {
		cfg := DefaultSenderConfig()
		cfg.QueueBytes = 512 // about two 16-row frames
		cfg.BlockRows = 16
		cfg.SpillDir = t.TempDir()
		return cfg
	}
	for _, reset := range []bool{false, true} {
		name := "clean"
		if reset {
			name = "reconnect"
		}
		t.Run(name, func(t *testing.T) {
			env := newTransferEnv(t)
			job := "jspillgone-" + name
			f := &InputFormat{CoordAddr: env.coordAddr, Job: job, ConsumeDelay: 20 * time.Microsecond, AcceptTimeout: 5 * time.Second}
			cfg := spillyConfig(t)
			if reset {
				cfg.Dial = fault.NewDialer(1, fault.DialerConfig{MaxFaults: 1, Ops: []fault.Op{fault.Reset}, MaxByte: 1 << 10}).Dial
			}
			_, stats := env.runTransfer(t, job, 1, 1, 1500, f, cfg)
			if stats[0].SpilledBytes == 0 {
				t.Error("the slow consumer never made the log spill")
			}
			if reset && stats[0].Reconnects == 0 {
				t.Error("the injected reset never exercised the reconnect path")
			}
			noSpillFiles(t, cfg.SpillDir)
		})
	}
	t.Run("restarts_exhausted", func(t *testing.T) {
		env := newTransferEnv(t)
		const job = "jspillgone-exhausted"
		f := &InputFormat{CoordAddr: env.coordAddr, Job: job, AcceptTimeout: 5 * time.Second}
		// The reader registers its split, so the coordinator matches the
		// sender on every attempt, but no dial reaches it.
		opened := make(chan hadoopfmt.RecordReader, 1)
		go func() {
			<-env.launched
			var rr hadoopfmt.RecordReader
			splits, err := f.Splits(0)
			if err == nil {
				rr, err = f.Open(splits[0], env.topo.Node(1))
			}
			if err != nil {
				t.Errorf("open split: %v", err)
			}
			opened <- rr
		}()
		cfg := spillyConfig(t)
		cfg.MaxRestarts = 1
		cfg.Dial = func(string, string, time.Duration) (net.Conn, error) {
			return nil, errors.New("ml worker unreachable")
		}
		cost := &cluster.CostModel{DiskReadBps: 1e9, DiskWriteBps: 1e9, NetBps: 1e9}
		_, err := Send(SendRequest{
			CoordAddr: env.coordAddr, Job: job, Command: "svm",
			Worker: 0, NumWorkers: 1, K: 1,
			Node: env.topo.Node(1), Topo: env.topo, Cost: cost, Schema: streamSchema(),
			Rows: genRows(0, 1500), Config: cfg,
		})
		if err == nil || !strings.Contains(err.Error(), "transfer failed after 1 restarts") {
			t.Errorf("Send = %v, want the exhausted restart budget", err)
		}
		if cost.Stats().DiskWriteBytes == 0 {
			t.Error("the undelivered log never went over budget")
		}
		noSpillFiles(t, cfg.SpillDir)
		if rr := <-opened; rr != nil {
			if err := rr.Close(); err != nil {
				t.Error(err)
			}
		}
	})
}

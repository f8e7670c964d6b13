package stream

import (
	"runtime"
	"sync"
	"testing"

	"sqlml/internal/hadoopfmt"
	"sqlml/internal/row"
)

// drainSplits consumes every split of f batch-wise without retaining rows,
// so the receiving side contributes no lasting heap growth.
func drainSplits(f *InputFormat) error {
	splits, err := f.Splits(0)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, len(splits))
	for i, sp := range splits {
		wg.Add(1)
		go func(i int, sp hadoopfmt.InputSplit) {
			defer wg.Done()
			rr, err := f.Open(sp, nil)
			if err != nil {
				errs[i] = err
				return
			}
			defer func() {
				if cerr := rr.Close(); cerr != nil && errs[i] == nil {
					errs[i] = cerr
				}
			}()
			cr := rr.(hadoopfmt.ColBatchRecordReader)
			cb := row.NewColBatch(nil)
			for {
				_, ok, err := cr.NextColBatch(cb)
				if err != nil {
					errs[i] = err
					return
				}
				if !ok {
					return
				}
			}
		}(i, sp)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// probeIterator serves rows and fires probe once, right before row `at` —
// from the sender's own consume goroutine, so the probe observes the
// sender mid-transfer with most of the stream already encoded.
type probeIterator struct {
	rows  []row.Row
	i     int
	at    int
	probe func()
}

func (p *probeIterator) Next() (row.Row, bool, error) {
	if p.i == p.at && p.probe != nil {
		p.probe()
		p.probe = nil
	}
	if p.i >= len(p.rows) {
		return nil, false, nil
	}
	r := p.rows[p.i]
	p.i++
	return r, true, nil
}

// liveHeap forces a full GC and returns the live heap bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSenderMemoryBoundedWithoutReplay pins the pooling contract: with the
// replay spool disabled, block buffers recycle through the pool and the
// sender's residency stays O(blocks in flight) per target instead of
// O(stream). The run with replay enabled — which must retain every frame
// until the ACK — serves as the yardstick. Live heap is probed with a
// forced GC from inside the sender's input iterator near the end of the
// stream (when the spool is near-full), so transient decode garbage
// cannot inflate the measurement.
func TestSenderMemoryBoundedWithoutReplay(t *testing.T) {
	env := newTransferEnv(t)
	const numRows = 400_000
	rows := genRows(0, numRows)
	// Pool buffers survive the probe's GC; keep their count small and
	// deterministic with a short queue.
	const queueFrames = 8

	runOnce := func(job string, disable bool) uint64 {
		f := &InputFormat{CoordAddr: env.coordAddr, Job: job}
		drained := make(chan error, 1)
		go func() {
			<-env.launched
			drained <- drainSplits(f)
		}()
		cfg := DefaultSenderConfig()
		cfg.DisableReplay = disable
		cfg.QueueFrames = queueFrames
		base := liveHeap()
		var atProbe uint64
		it := &probeIterator{rows: rows, at: numRows - 1, probe: func() { atProbe = liveHeap() }}
		if _, err := Send(SendRequest{
			CoordAddr: env.coordAddr, Job: job, Command: "svm",
			Worker: 0, NumWorkers: 1, K: 1,
			Node: env.topo.Node(1), Topo: env.topo,
			Schema: streamSchema(), Input: it,
			Config: cfg,
		}); err != nil {
			t.Fatal(err)
		}
		if err := <-drained; err != nil {
			t.Fatal(err)
		}
		if atProbe < base {
			return 0
		}
		return atProbe - base
	}

	replayOn := runOnce("jresident-replay", false)
	replayOff := runOnce("jresident-noreplay", true)
	if replayOff*2 > replayOn {
		t.Errorf("live heap growth without replay = %d B, with replay = %d B; recycling should keep it well under half",
			replayOff, replayOn)
	}
}

package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sqlml/internal/cluster"
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/ml"
	"sqlml/internal/row"
	"sqlml/internal/stream"
)

// TransferConfig parameterises one isolated streaming-transfer experiment
// (the §3 design-choice ablations: split factor k, buffer size, locality,
// slow-consumer spilling, failure recovery).
type TransferConfig struct {
	Workers     int
	K           int
	RowsPerWork int
	BufferSize  int
	// QueueBytes is the sender's per-slot budget of unsent frame bytes in
	// memory, past which frames spill (0 means the sender default).
	QueueBytes int
	// BlockRows caps rows per wire block (0 means the sender default; 1
	// degenerates to a frame per row) — the block-framing ablation knob.
	// DisableCompression turns off the frames' per-column encodings
	// (columnar layout, raw vectors), isolating what the encodings buy on
	// top of the layout.
	BlockRows          int
	DisableCompression bool
	ConsumeDelay       time.Duration
	// Colocate places ML workers on the SQL workers' nodes (the
	// coordinator's locality hint honoured); otherwise they all land on a
	// remote node and every byte crosses the simulated network.
	Colocate bool
	// FailSplit / FailAfterRows inject one ML worker crash mid-transfer.
	FailSplit     int
	FailAfterRows int
}

// DefaultTransfer mirrors the paper's settings (4 KB buffers).
func DefaultTransfer() TransferConfig {
	return TransferConfig{
		Workers:     4,
		K:           1,
		RowsPerWork: 2000,
		BufferSize:  4 << 10,
		Colocate:    true,
		FailSplit:   -1,
	}
}

// TransferReport summarises one transfer experiment.
type TransferReport struct {
	Rows         int
	FramesSent   int64
	SimTime      time.Duration
	NetBytes     int64
	SpilledBytes int64
	Restarts     int
	// RawBytes/WireBytes mirror SenderStats: the row-encoded size of the
	// delivered rows vs the bytes actually framed — the compression ratio.
	RawBytes  int64
	WireBytes int64
}

// transferSchema carries one id and one value column.
func transferSchema() row.Schema {
	return row.MustSchema(
		row.Column{Name: "id", Type: row.TypeInt},
		row.Column{Name: "x", Type: row.TypeFloat},
		row.Column{Name: "label", Type: row.TypeInt},
	)
}

// RunTransfer executes one coordinator-mediated transfer with the given
// knobs and verifies exactly-once delivery.
func RunTransfer(cfg TransferConfig) (*TransferReport, error) {
	topo := cluster.NewTopology(cfg.Workers + 1)
	cost := CalibratedCost()
	coord := stream.NewCoordinator(nil)
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer coord.Stop()

	mlNodes := make([]*cluster.Node, 0, cfg.Workers)
	if cfg.Colocate {
		for w := 0; w < cfg.Workers; w++ {
			mlNodes = append(mlNodes, topo.Node(w+1))
		}
	} else {
		mlNodes = append(mlNodes, topo.Node(0)) // anti-located
	}

	var failOnce sync.Once
	inFmt := &stream.InputFormat{
		CoordAddr:         addr,
		Job:               fmt.Sprintf("ablation-%d", time.Now().UnixNano()),
		ReceiveBufferSize: cfg.BufferSize,
		ConsumeDelay:      cfg.ConsumeDelay,
	}
	if cfg.FailSplit >= 0 {
		inFmt.Inject = func(split, rowsRead int) bool {
			fired := false
			if split == cfg.FailSplit && rowsRead == cfg.FailAfterRows {
				failOnce.Do(func() { fired = true })
			}
			return fired
		}
	}

	type ingestResult struct {
		d   *ml.Dataset
		err error
	}
	done := make(chan ingestResult, 1)
	go func() {
		d, err := ml.Ingest(inFmt, ml.IngestOptions{LabelCol: "label", Nodes: mlNodes, Cost: cost})
		done <- ingestResult{d, err}
	}()

	senderCfg := stream.DefaultSenderConfig()
	senderCfg.BufferSize = cfg.BufferSize
	senderCfg.QueueBytes = cfg.QueueBytes
	senderCfg.BlockRows = cfg.BlockRows
	senderCfg.DisableCompression = cfg.DisableCompression
	senderCfg.MaxRestarts = 8

	// Every sender at once: the coordinator matches a job only when all of
	// its SQL workers have registered.
	stats := make([]*stream.SenderStats, cfg.Workers)
	err = hadoopfmt.RunTasks(context.Background(), nil, cfg.Workers, cfg.Workers, func(w int) error {
		rows := make([]row.Row, cfg.RowsPerWork)
		for i := range rows {
			rows[i] = row.Row{
				row.Int(int64(w*10_000_000 + i)),
				row.Float(float64(i)),
				row.Int(int64(i % 2)),
			}
		}
		var err error
		stats[w], err = stream.Send(stream.SendRequest{
			CoordAddr:  addr,
			Job:        inFmt.Job,
			Command:    "bench",
			Worker:     w,
			NumWorkers: cfg.Workers,
			K:          cfg.K,
			Node:       topo.Node(w + 1),
			Topo:       topo,
			Cost:       cost,
			Schema:     transferSchema(),
			Rows:       rows,
			Config:     senderCfg,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	res := <-done
	if res.err != nil {
		return nil, res.err
	}
	want := cfg.Workers * cfg.RowsPerWork
	if res.d.NumRows() != want {
		return nil, fmt.Errorf("experiments: delivered %d rows, want %d", res.d.NumRows(), want)
	}
	report := &TransferReport{
		Rows:     res.d.NumRows(),
		SimTime:  cost.Stats().SimulatedTime,
		NetBytes: cost.Stats().NetBytes,
	}
	for _, s := range stats {
		report.FramesSent += s.FramesSent
		report.SpilledBytes += s.SpilledBytes
		report.Restarts += s.Restarts
		report.RawBytes += s.RawBytes
		report.WireBytes += s.WireBytes
	}
	return report, nil
}

package experiments

import (
	"testing"
	"time"

	"sqlml/internal/stream"
)

// TestFigure3ShapeAtSmallScale is the harness's own regression test: the
// orderings the paper reports must hold at any scale the benchmarks might
// be run at, not just the default.
func TestFigure3ShapeAtSmallScale(t *testing.T) {
	env, err := Setup(SmallScale(), stream.DefaultSenderConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	rows, err := Figure3(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	naive, insql, stream := rows[0], rows[1], rows[2]
	if naive.Approach != "naive" || insql.Approach != "insql" || stream.Approach != "insql+stream" {
		t.Fatalf("approach order: %v %v %v", naive.Approach, insql.Approach, stream.Approach)
	}
	if !(naive.TotalSim > insql.TotalSim && insql.TotalSim > stream.TotalSim) {
		t.Errorf("ordering violated: %v > %v > %v expected",
			naive.TotalSim, insql.TotalSim, stream.TotalSim)
	}
	ratio := float64(naive.TotalSim) / float64(insql.TotalSim)
	if ratio < 1.3 || ratio > 2.2 {
		t.Errorf("naive/insql = %.2f, want near the paper's 1.7", ratio)
	}
	// All three consumed the same workload.
	if naive.Rows != insql.Rows || insql.Rows != stream.Rows || naive.Rows == 0 {
		t.Errorf("row counts differ: %d %d %d", naive.Rows, insql.Rows, stream.Rows)
	}
	// The per-stage breakdown accounts for (approximately) the total.
	var sum time.Duration
	for _, s := range naive.Stages {
		sum += s.Sim
	}
	if sum <= 0 || sum > naive.TotalSim {
		t.Errorf("naive stage sum %v vs total %v", sum, naive.TotalSim)
	}
}

func TestFigure4ShapeAtSmallScale(t *testing.T) {
	for _, onDFS := range []bool{false, true} {
		env, err := Setup(SmallScale(), stream.DefaultSenderConfig())
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Figure4(env, onDFS)
		env.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 3 {
			t.Fatalf("rows = %d", len(rows))
		}
		none, maps, full := rows[0], rows[1], rows[2]
		if none.Hit != "miss" || maps.Hit != "recode-map" || full.Hit != "full-result" {
			t.Fatalf("onDFS=%v hits: %s %s %s", onDFS, none.Hit, maps.Hit, full.Hit)
		}
		if !(none.TotalSim > maps.TotalSim && maps.TotalSim > full.TotalSim) {
			t.Errorf("onDFS=%v ordering violated: %v > %v > %v expected",
				onDFS, none.TotalSim, maps.TotalSim, full.TotalSim)
		}
	}
}

func TestSVMTrainingReport(t *testing.T) {
	env, err := Setup(SmallScale(), stream.DefaultSenderConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	rep, err := SVMTraining(env, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.IngestSim <= 0 || rep.TrainWall <= 0 {
		t.Errorf("report = %+v", rep)
	}
	if rep.Accuracy < 0.5 {
		t.Errorf("SVM below coin-flip: %.3f", rep.Accuracy)
	}
}

func TestRunTransferExactlyOnceGuard(t *testing.T) {
	cfg := DefaultTransfer()
	cfg.Workers = 2
	cfg.RowsPerWork = 300
	rep, err := RunTransfer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != 600 {
		t.Errorf("rows = %d", rep.Rows)
	}
	if rep.Restarts != 0 {
		t.Errorf("unexpected restarts: %d", rep.Restarts)
	}
}

// TestRunTransferBlockFramingContrast pins the ablation table's coalescing
// contrast: one row per block degenerates to a frame per row, the default
// budget packs up to 1024 rows into each, and at the default the columnar
// frames undercut the rows' row-encoded size.
func TestRunTransferBlockFramingContrast(t *testing.T) {
	cfg := DefaultTransfer()
	cfg.Workers = 2
	cfg.RowsPerWork = 200 // every frame pins a pooled block buffer in the replay spool
	cfg.BlockRows = 1
	perRow, err := RunTransfer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if perRow.FramesSent != int64(perRow.Rows) {
		t.Errorf("BlockRows=1: %d frames for %d rows; want one frame per row", perRow.FramesSent, perRow.Rows)
	}
	cfg.RowsPerWork = 1500
	cfg.BlockRows = 0
	blocks, err := RunTransfer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if blocks.FramesSent*1024 < int64(blocks.Rows) || blocks.FramesSent > 4 {
		t.Errorf("default blocks: %d frames for %d rows; want 2 per sender", blocks.FramesSent, blocks.Rows)
	}
	if blocks.RawBytes <= blocks.WireBytes {
		t.Errorf("default blocks: raw %d ≤ wire %d; per-column encodings absent", blocks.RawBytes, blocks.WireBytes)
	}
}

func TestMRStartupDelayScalesWithWorkload(t *testing.T) {
	small := MRStartupDelay(Scale{Users: 100, CartsPerUser: 10})
	big := MRStartupDelay(Scale{Users: 1000, CartsPerUser: 100})
	if big <= small {
		t.Errorf("startup delay should scale: %v vs %v", small, big)
	}
}

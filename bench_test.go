// Benchmarks regenerating the paper's evaluation (§7). One benchmark per
// figure plus the design-choice ablations; each reports the *simulated*
// time of the modelled cluster (sim-ms) next to Go's wall-clock ns/op.
//
//	go test -bench=. -benchmem
//
// The simulated time is what corresponds to the paper's seconds: the cost
// model charges disk, network and row-processing passes at calibrated
// rates without sleeping, so the benchmarks stay fast while the *shape* of
// the results (who wins, by what factor) reproduces the paper's figures.
package sqlml_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"sqlml/internal/core"
	"sqlml/internal/experiments"
	"sqlml/internal/ml"
	"sqlml/internal/stream"
)

func simMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// BenchmarkFigure3 regenerates Figure 3: the three approaches of
// connecting the big SQL system with the big ML system, with the same
// stage breakdown the paper plots (prep / trsfm / input for ml). Besides
// the allocation counters (-benchmem is implied via ReportAllocs), it
// reports the peak Go heap over the run — the number the batch-pipelined
// executor is meant to push down relative to stage-at-a-time
// materialization.
func BenchmarkFigure3(b *testing.B) {
	for _, approach := range []core.Approach{core.Naive, core.InSQL, core.InSQLStream} {
		b.Run(approach.String(), func(b *testing.B) {
			env, err := experiments.Setup(experiments.DefaultScale(), stream.DefaultSenderConfig())
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			cfg := experiments.PaperPipeline()
			var total, stageSim time.Duration
			stages := map[string]time.Duration{}
			b.ReportAllocs()
			var peakHeap uint64
			var ms runtime.MemStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Cost.ResetStats()
				last := time.Duration(0)
				cfg.OnStage = func(stage string) {
					now := env.Cost.Stats().SimulatedTime
					stages[stage] += now - last
					last = now
					runtime.ReadMemStats(&ms)
					if ms.HeapAlloc > peakHeap {
						peakHeap = ms.HeapAlloc
					}
				}
				if _, err := core.Run(env, approach, cfg); err != nil {
					b.Fatal(err)
				}
				stageSim = env.Cost.Stats().SimulatedTime
				total += stageSim
			}
			b.ReportMetric(simMS(total)/float64(b.N), "sim-ms/op")
			b.ReportMetric(float64(peakHeap), "peak-heap-B")
			for stage, d := range stages {
				b.ReportMetric(simMS(d)/float64(b.N), "sim-ms-"+stage)
			}
		})
	}
}

// BenchmarkFigure4 regenerates Figure 4: the effect of caching on the
// insql+stream pipeline — no cache, cached recode maps, cached fully
// transformed result.
func BenchmarkFigure4(b *testing.B) {
	type variant struct {
		name  string
		tier  core.CacheTier
		onDFS bool
	}
	variants := []variant{
		{"no-cache", core.CacheOff, false},
		{"cache-recode-maps", core.CacheRecodeMaps, false},
		{"cache-transformed-result", core.CacheFullResult, false},
		{"cache-transformed-result-dfs", core.CacheFullResult, true},
	}
	for _, v := range variants {
		tier := v.tier
		b.Run(v.name, func(b *testing.B) {
			env, err := experiments.Setup(experiments.DefaultScale(), stream.DefaultSenderConfig())
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			cfg := experiments.PaperPipeline()
			cfg.CachePopulate = true
			cfg.CacheOnDFS = v.onDFS
			if _, err := core.Run(env, core.InSQLStream, cfg); err != nil {
				b.Fatal(err)
			}
			cfg.CachePopulate = false
			cfg.Tier = tier
			var total time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Cost.ResetStats()
				if _, err := core.Run(env, core.InSQLStream, cfg); err != nil {
					b.Fatal(err)
				}
				total += env.Cost.Stats().SimulatedTime
			}
			b.ReportMetric(simMS(total)/float64(b.N), "sim-ms/op")
		})
	}
}

// BenchmarkSVMTraining reproduces the §7 side note: ingesting the
// transformed data and running SVMWithSGD for 10 iterations (the paper
// measured 774 s at full scale; absolute numbers differ, the point is that
// training dwarfs the transfer savings).
func BenchmarkSVMTraining(b *testing.B) {
	env, err := experiments.Setup(experiments.DefaultScale(), stream.DefaultSenderConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	res, err := core.Run(env, core.InSQL, experiments.PaperPipeline())
	if err != nil {
		b.Fatal(err)
	}
	sgd := ml.DefaultSGD()
	sgd.Iterations = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.TrainSVMWithSGD(res.Dataset, sgd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSplitFactor sweeps k, the number of ML workers fed by
// each SQL worker (m = n·k InputSplits), §3's degree-of-parallelism knob.
func BenchmarkAblationSplitFactor(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(benchName("k", k), func(b *testing.B) {
			cfg := experiments.DefaultTransfer()
			cfg.K = k
			runTransferBench(b, cfg)
		})
	}
}

// BenchmarkAblationBufferSize sweeps the send/receive buffer size (the
// paper fixes both at 4 KB).
func BenchmarkAblationBufferSize(b *testing.B) {
	for _, size := range []int{1 << 10, 4 << 10, 64 << 10, 1 << 20} {
		b.Run(benchName("buf", size), func(b *testing.B) {
			cfg := experiments.DefaultTransfer()
			cfg.BufferSize = size
			runTransferBench(b, cfg)
		})
	}
}

// BenchmarkAblationBlockSize sweeps the rows-per-block budget of the wire
// protocol, down to one row per block as the degenerate point — the
// block-oriented-transfer ablation (frames/op makes the coalescing
// visible). Every run reports raw-B/op (what the rows cost row-encoded)
// beside wire-B/op, which is what the columnar frame buys; the nocompress
// variant separates the layout from the per-column encodings.
func BenchmarkAblationBlockSize(b *testing.B) {
	type variant struct {
		name       string
		blockRows  int
		noCompress bool
	}
	variants := []variant{
		{"block=1rows", 1, false},
		{"block=64rows", 64, false},
		{"block=1024rows", 1024, false},
		{"block=4096rows", 4096, false},
		{"block=1024rows-nocompress", 1024, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := experiments.DefaultTransfer()
			cfg.BlockRows = v.blockRows
			cfg.DisableCompression = v.noCompress
			var frames, wire, raw int64
			var total time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := experiments.RunTransfer(cfg)
				if err != nil {
					b.Fatal(err)
				}
				frames += rep.FramesSent
				wire += rep.WireBytes
				raw += rep.RawBytes
				total += rep.SimTime
			}
			b.ReportMetric(float64(frames)/float64(b.N), "frames/op")
			b.ReportMetric(float64(wire)/float64(b.N), "wire-B/op")
			b.ReportMetric(float64(raw)/float64(b.N), "raw-B/op")
			b.ReportMetric(simMS(total)/float64(b.N), "sim-ms/op")
		})
	}
}

// BenchmarkAblationLocality compares locality-aware ML worker placement
// (colocated with SQL workers, node-local transfer) against anti-located
// placement where every byte crosses the simulated network.
func BenchmarkAblationLocality(b *testing.B) {
	for _, colocate := range []bool{true, false} {
		name := "colocated"
		if !colocate {
			name = "remote"
		}
		b.Run(name, func(b *testing.B) {
			cfg := experiments.DefaultTransfer()
			cfg.Colocate = colocate
			var net int64
			var total time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := experiments.RunTransfer(cfg)
				if err != nil {
					b.Fatal(err)
				}
				net += rep.NetBytes
				total += rep.SimTime
			}
			b.ReportMetric(float64(net)/float64(b.N), "net-B/op")
			b.ReportMetric(simMS(total)/float64(b.N), "sim-ms/op")
		})
	}
}

// BenchmarkAblationSpill compares a fast consumer against a slow one that
// forces the sender's spill-to-disk backpressure path.
func BenchmarkAblationSpill(b *testing.B) {
	for _, delay := range []time.Duration{0, 50 * time.Microsecond} {
		name := "fast-consumer"
		if delay > 0 {
			name = "slow-consumer"
		}
		b.Run(name, func(b *testing.B) {
			cfg := experiments.DefaultTransfer()
			cfg.ConsumeDelay = delay
			cfg.QueueFrames = 4
			cfg.BlockRows = 16 // small blocks so the queue can actually fill
			cfg.RowsPerWork = 1500
			var spilled int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := experiments.RunTransfer(cfg)
				if err != nil {
					b.Fatal(err)
				}
				spilled += rep.SpilledBytes
			}
			b.ReportMetric(float64(spilled)/float64(b.N), "spilled-B/op")
		})
	}
}

// BenchmarkFailureRecovery measures a transfer in which one ML worker
// crashes mid-stream and the §6 restart protocol resends its split.
func BenchmarkFailureRecovery(b *testing.B) {
	cfg := experiments.DefaultTransfer()
	cfg.RowsPerWork = 500
	cfg.FailSplit = 1
	cfg.FailAfterRows = 100
	var restarts int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunTransfer(cfg)
		if err != nil {
			b.Fatal(err)
		}
		restarts += rep.Restarts
	}
	b.ReportMetric(float64(restarts)/float64(b.N), "restarts/op")
}

func runTransferBench(b *testing.B, cfg experiments.TransferConfig) {
	b.Helper()
	var total time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunTransfer(cfg)
		if err != nil {
			b.Fatal(err)
		}
		total += rep.SimTime
	}
	b.ReportMetric(simMS(total)/float64(b.N), "sim-ms/op")
}

func benchName(prefix string, v int) string {
	switch {
	case v >= 1<<20 && v%(1<<20) == 0:
		return fmt.Sprintf("%s=%dMB", prefix, v>>20)
	case v >= 1<<10 && v%(1<<10) == 0:
		return fmt.Sprintf("%s=%dKB", prefix, v>>10)
	default:
		return fmt.Sprintf("%s=%d", prefix, v)
	}
}

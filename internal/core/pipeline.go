package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"sqlml/internal/cache"
	"sqlml/internal/jaql"
	"sqlml/internal/mapred"
	"sqlml/internal/ml"
	"sqlml/internal/rewriter"
	"sqlml/internal/stream"
	"sqlml/internal/transform"
)

// Approach selects one of Figure 3's three ways of connecting SQL to ML.
type Approach int

// The three approaches of Figure 3.
const (
	Naive Approach = iota
	InSQL
	InSQLStream
)

// String renders the approach as in the paper's figure.
func (a Approach) String() string {
	switch a {
	case Naive:
		return "naive"
	case InSQL:
		return "insql"
	default:
		return "insql+stream"
	}
}

// CacheTier selects how much of the §5 cache a run may use (Figure 4's
// three bars).
type CacheTier int

// Cache tiers, weakest first.
const (
	CacheOff CacheTier = iota
	CacheRecodeMaps
	CacheFullResult
)

// String renders the tier as in Figure 4's legend.
func (c CacheTier) String() string {
	switch c {
	case CacheRecodeMaps:
		return "cache recode maps"
	case CacheFullResult:
		return "cache transformed result"
	default:
		return "no cache"
	}
}

// PipelineConfig describes one integrated SQL→ML run.
type PipelineConfig struct {
	// Query is the preparation SQL (the paper's §1 example query).
	Query string
	// Spec is the In-SQL transformation to apply to the query result.
	Spec transform.Spec
	// LabelCol / LabelTransform configure the ML ingestion.
	LabelCol       string
	LabelTransform func(float64) float64
	// K is the streaming split factor (m = n·k ML workers).
	K int
	// Tier caps cache usage; CachePopulate stores this run's outcome.
	Tier          CacheTier
	CachePopulate bool
	// CacheOnDFS materialises the cached transformed result as an external
	// DFS table (the paper's "actual HDFS table" variant) instead of an
	// in-memory materialized view; cache-served runs then pay a DFS scan.
	CacheOnDFS bool
	// OnStage, when set, is invoked at the end of each pipeline stage with
	// the stage's name — the hook the benchmark harness uses to attribute
	// simulated cost to Figure 3's bars.
	OnStage func(stage string)
	// OnInput, when set, is invoked with the streaming InputFormat before
	// ML ingestion starts — the seam chaos tests use to arm reader-side
	// fault injection (Inject, ReconnectBudget). insql+stream only.
	OnInput func(f *stream.InputFormat)
}

// StageTimings is the per-stage breakdown Figure 3 reports.
type StageTimings struct {
	// Prep is the SQL query time (naive only — elsewhere it pipelines).
	Prep time.Duration
	// Transform is the transformation time (naive: the Jaql jobs; insql:
	// query+transform pipelined together, reported here).
	Transform time.Duration
	// Input is the ML-side ingestion time ("input for ML"): reading the
	// DFS, or zero-extra for streaming where it overlaps the transfer.
	Input time.Duration
	// Total is end-to-end until the in-memory dataset is constructed.
	Total time.Duration
}

// RunResult is one pipeline execution.
type RunResult struct {
	Approach Approach
	Timings  StageTimings
	Dataset  *ml.Dataset
	// CacheHit reports what the cache answered (CacheOff runs say Miss).
	CacheHit cache.HitKind
	// Rows is the transformed row count handed to ML.
	Rows int
}

var pipelineSeq atomic.Int64

// stage fires the config's stage hook, if any.
func stage(cfg PipelineConfig, name string) {
	if cfg.OnStage != nil {
		cfg.OnStage(name)
	}
}

// Run executes the configured pipeline with the given approach.
func Run(env *Env, a Approach, cfg PipelineConfig) (*RunResult, error) {
	switch a {
	case Naive:
		return runNaive(env, cfg)
	case InSQL:
		return runInSQL(env, cfg)
	case InSQLStream:
		return runInSQLStream(env, cfg)
	default:
		return nil, fmt.Errorf("core: unknown approach %d", a)
	}
}

// mlEnv assembles the ML ingestion options for a transformed schema.
func mlOptions(env *Env, cfg PipelineConfig) ml.IngestOptions {
	return ml.IngestOptions{
		LabelCol:       cfg.LabelCol,
		LabelTransform: cfg.LabelTransform,
		NumWorkers:     len(env.WorkerIDs),
		Nodes:          env.WorkerNodes(),
		Cost:           env.Cost,
	}
}

// runNaive is Figure 3's first bar: materialise the SQL result on the DFS,
// transform it with the external Jaql tool (two MapReduce jobs, another
// DFS round trip), then have ML read the DFS.
func runNaive(env *Env, cfg PipelineConfig) (*RunResult, error) {
	seq := pipelineSeq.Add(1)
	stagingDir := fmt.Sprintf("/staging/naive-%d", seq)
	prepDir := stagingDir + "/prep"
	outDir := stagingDir + "/transformed"

	start := time.Now()
	// Even the naive approach pipelines query → DFS writer inside the
	// engine; its penalty is the DFS round trips between systems, not
	// materialization inside one.
	res, err := env.Engine.QueryStream(cfg.Query)
	if err != nil {
		return nil, err
	}
	if err := env.Engine.ExportToDFS(res, env.FS, prepDir); err != nil {
		return nil, err
	}
	prepDone := time.Now()
	stage(cfg, "prep")

	jres, err := jaql.Transform(mapred.Cluster{
		Topo:         env.Topo,
		FS:           env.FS,
		Cost:         env.Cost,
		TaskNodes:    env.WorkerIDs,
		StartupDelay: env.MRStartupDelay,
		TaskFault:    env.TaskFault,
	}, prepDir, res.Schema, cfg.Spec, outDir)
	if err != nil {
		return nil, err
	}
	trsfmDone := time.Now()
	stage(cfg, "trsfm")

	d, err := ml.Ingest(mapred.DirFormat(env.FS, jres.OutputPath, jres.Schema), mlOptions(env, cfg))
	if err != nil {
		return nil, err
	}
	end := time.Now()
	stage(cfg, "input")
	return &RunResult{
		Approach: Naive,
		Dataset:  d,
		Rows:     d.NumRows(),
		CacheHit: cache.Miss,
		Timings: StageTimings{
			Prep:      prepDone.Sub(start),
			Transform: trsfmDone.Sub(prepDone),
			Input:     end.Sub(trsfmDone),
			Total:     end.Sub(start),
		},
	}, nil
}

// prepareTransformed runs the In-SQL half shared by insql and insql+stream:
// query + transformation inside the engine (consulting the cache per the
// tier). The returned Output.Result is STREAMING whenever the plan allows
// (no scaling breaker, no cache population): the query/transform pipeline
// runs only as the caller consumes it, so the consumer — DFS export or the
// streaming transfer — overlaps with transformation (Figure 2). Call
// cleanup after the result has been consumed.
func prepareTransformed(env *Env, cfg PipelineConfig) (out *transform.Output, hit cache.HitKind, cleanup func(), err error) {
	seq := pipelineSeq.Add(1)
	cleanups := []func(){}
	cleanup = func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}

	var info *rewriter.QueryInfo
	if cfg.Tier > CacheOff || cfg.CachePopulate {
		info, err = rewriter.AnalyzeSQL(env.Engine, cfg.Query)
		if err != nil {
			// Unanalyzable queries simply skip the cache.
			info = nil
			err = nil
		}
	}

	hit = cache.Miss
	if info != nil && cfg.Tier > CacheOff {
		maxKind := cache.RecodeMapHit
		if cfg.Tier == CacheFullResult {
			maxKind = cache.FullResultHit
		}
		h := env.Cache.LookupAtMost(info, cfg.Spec, maxKind)
		switch h.Kind {
		case cache.FullResultHit:
			// §5.1: answer entirely from the cached transformed table,
			// streamed straight to the consumer.
			res, qerr := env.Engine.QueryStream(h.RewrittenSQL)
			if qerr != nil {
				cleanup()
				return nil, cache.Miss, nil, qerr
			}
			return &transform.Output{Result: res, Map: h.Entry.Map}, cache.FullResultHit, cleanup, nil
		case cache.RecodeMapHit:
			// §5.2: run the query but skip recode phase 1. With the map
			// already known, the transformation scans the prep result just
			// once, so the query streams into recoding — nothing
			// materializes between prep and transform.
			hit = cache.RecodeMapHit
			prep, qerr := env.Engine.QueryStream(cfg.Query)
			if qerr != nil {
				cleanup()
				return nil, cache.Miss, nil, qerr
			}
			prepTable := fmt.Sprintf("__pipe_prep_%d", seq)
			if rerr := env.Engine.RegisterResultStream(prepTable, prep); rerr != nil {
				cleanup()
				return nil, cache.Miss, nil, rerr
			}
			cleanups = append(cleanups, func() { env.Engine.DropTable(prepTable) })
			out, terr := transform.Apply(env.Engine, prepTable, cfg.Spec, h.Entry.Map)
			if terr != nil {
				cleanup()
				return nil, cache.Miss, nil, terr
			}
			cleanups = append(cleanups, func() { env.Engine.DropTable(out.MapTable) })
			return out, cache.RecodeMapHit, cleanup, nil
		}
	}

	// Fresh run: query, then transform, all inside the engine. Building a
	// fresh recode map needs two scans of the prep result (map build, then
	// recode), so the prep query is the one mandatory materialization.
	prep, err := env.Engine.Query(cfg.Query)
	if err != nil {
		cleanup()
		return nil, cache.Miss, nil, err
	}
	prepTable := fmt.Sprintf("__pipe_prep_%d", seq)
	if err := env.Engine.RegisterResult(prepTable, prep); err != nil {
		cleanup()
		return nil, cache.Miss, nil, err
	}
	cleanups = append(cleanups, func() { env.Engine.DropTable(prepTable) })
	out, err = transform.Apply(env.Engine, prepTable, cfg.Spec, nil)
	if err != nil {
		cleanup()
		return nil, cache.Miss, nil, err
	}
	cleanups = append(cleanups, func() { env.Engine.DropTable(out.MapTable) })
	if cfg.CachePopulate && info != nil {
		// Populating the cache forces materialization: the entry must
		// survive this run, and the caller still consumes out.Result after
		// us (a materialized result replays its partitions on every read).
		if merr := out.Result.Materialize(); merr != nil {
			cleanup()
			return nil, cache.Miss, nil, merr
		}
		name := fmt.Sprintf("__cached_%d", seq)
		var entry *cache.Entry
		var cerr error
		if cfg.CacheOnDFS {
			entry, cerr = cache.MaterializeOnDFS(env.Engine, env.FS, "/cache/"+name, name, info, cfg.Spec, out)
		} else {
			entry, cerr = cache.Materialize(env.Engine, name, info, cfg.Spec, out)
		}
		if cerr == nil {
			if aerr := env.Cache.Add(entry); aerr != nil {
				env.Engine.DropTable(entry.TransformedTable)
			}
		}
	}
	return out, hit, cleanup, nil
}

// runInSQL is Figure 3's middle bar: query and transformation pipeline
// inside the SQL engine, the transformed result is materialised on the DFS
// once, and ML reads it from there.
func runInSQL(env *Env, cfg PipelineConfig) (*RunResult, error) {
	seq := pipelineSeq.Add(1)
	outDir := fmt.Sprintf("/staging/insql-%d/transformed", seq)

	start := time.Now()
	out, hit, cleanup, err := prepareTransformed(env, cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	// The export pulls the (usually streaming) transform pipeline directly:
	// transformed batches go to the DFS writers as they are produced.
	if err := env.Engine.ExportToDFS(out.Result, env.FS, outDir); err != nil {
		return nil, err
	}
	trsfmDone := time.Now()
	stage(cfg, "prep+trsfm")

	d, err := ml.Ingest(mapred.DirFormat(env.FS, outDir, out.Result.Schema), mlOptions(env, cfg))
	if err != nil {
		return nil, err
	}
	end := time.Now()
	stage(cfg, "input")
	return &RunResult{
		Approach: InSQL,
		Dataset:  d,
		Rows:     d.NumRows(),
		CacheHit: hit,
		Timings: StageTimings{
			Transform: trsfmDone.Sub(start), // prep+trsfm pipelined
			Input:     end.Sub(trsfmDone),
			Total:     end.Sub(start),
		},
	}, nil
}

// runInSQLStream is Figure 3's third bar: the transformed result is pushed
// to the ML workers through the parallel streaming transfer; nothing
// touches the DFS and all stages pipeline into one.
func runInSQLStream(env *Env, cfg PipelineConfig) (*RunResult, error) {
	seq := pipelineSeq.Add(1)
	job := fmt.Sprintf("pipe-%d", seq)
	k := cfg.K
	if k <= 0 {
		k = 1
	}

	start := time.Now()
	out, hit, cleanup, err := prepareTransformed(env, cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	// Hand the live transform pipeline to the sender UDF through a streaming
	// temp table: query → transform → transfer is one fused pipeline, the
	// paper's Figure 2 overlap. (A materialized result registers normally.)
	table := fmt.Sprintf("__pipe_send_%d", seq)
	if err := env.Engine.RegisterResultStream(table, out.Result); err != nil {
		return nil, err
	}
	defer env.Engine.DropTable(table)

	// ML side: ingest from the stream, concurrently with the senders.
	type ingestResult struct {
		d   *ml.Dataset
		err error
	}
	done := make(chan ingestResult, 1)
	go func() {
		f := &stream.InputFormat{
			CoordAddr:         env.CoordAddr,
			Job:               job,
			ReceiveBufferSize: env.SenderConfig.BufferSize,
		}
		if cfg.OnInput != nil {
			cfg.OnInput(f)
		}
		d, err := ml.Ingest(f, mlOptions(env, cfg))
		done <- ingestResult{d, err}
	}()

	// SQL side: the stream sender UDF over the transformed table.
	sendSQL := fmt.Sprintf("SELECT * FROM TABLE(stream_send(%s, '%s', '%s', 'svm', %d))",
		table, env.CoordAddr, job, k)
	if _, err := env.Engine.Query(sendSQL); err != nil {
		return nil, err
	}
	res := <-done
	if res.err != nil {
		return nil, res.err
	}
	end := time.Now()
	stage(cfg, "prep+trsfm+input")
	return &RunResult{
		Approach: InSQLStream,
		Dataset:  res.d,
		Rows:     res.d.NumRows(),
		CacheHit: hit,
		Timings: StageTimings{
			// Everything pipelines: the paper reports one prep+trsfm+input bar.
			Total: end.Sub(start),
		},
	}, nil
}

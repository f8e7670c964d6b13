// Package experiments regenerates the paper's evaluation (§7): Figure 3
// (three approaches of connecting big SQL with big ML, with per-stage
// breakdown) and Figure 4 (the effect of caching), plus the ablations
// DESIGN.md calls out. Every duration it reports is simulated time (the
// cost model's clock) except SVMReport.TrainWall; cmd/bench prints the
// tables, and wall/CPU/allocation numbers belong to benchmark/ alone.
package experiments

import (
	"fmt"
	"time"

	"sqlml/internal/cluster"
	"sqlml/internal/core"
	"sqlml/internal/datagen"
	"sqlml/internal/ml"
	"sqlml/internal/stream"
	"sqlml/internal/transform"
)

// PaperQuery is the §1 example preparation query.
const PaperQuery = `
	SELECT U.age, U.gender, C.amount, C.abandoned
	FROM carts C, users U
	WHERE C.userid=U.userid AND U.country='USA'`

// PaperSpec is the §7 transformation: recode gender and abandoned, dummy
// code gender.
func PaperSpec() transform.Spec {
	return transform.Spec{
		RecodeCols: []string{"gender", "abandoned"},
		CodeCols:   []string{"gender"},
		Coding:     transform.CodingDummy,
	}
}

// Scale sizes an experiment run.
type Scale struct {
	Users        int
	CartsPerUser int
	Seed         int64
}

// SmallScale keeps a full figure regeneration under a second of wall time.
func SmallScale() Scale { return Scale{Users: 300, CartsPerUser: 20, Seed: 7} }

// DefaultScale is cmd/bench's default: ~100k carts, the paper's 100:1
// carts:users ratio at 1:10000 of the paper's table sizes.
func DefaultScale() Scale { return Scale{Users: 1000, CartsPerUser: 100, Seed: 7} }

// CalibratedCost returns the simulated cost model used by all experiments,
// loosely calibrated to the paper's testbed: 12 SATA disks per node behind
// a 10 GbE network, and row processing at a few hundred MB/s per node.
func CalibratedCost() *cluster.CostModel {
	return &cluster.CostModel{
		DiskReadBps:  400e6,
		DiskWriteBps: 300e6,
		NetBps:       1.25e9,
		ProcBps:      400e6,
	}
}

// MRStartupDelay approximates Hadoop job scheduling/JVM startup overhead,
// scaled to the workload so ratios are stable across Scale values; the
// naive pipeline pays it twice (one per Jaql MapReduce job). The 2.2x
// factor is the calibration knob that reproduces the paper's observed
// naive/insql gap (about 1.7x end to end): on the paper's testbed a
// Hadoop job's fixed overhead was of the same order as one scan of the
// carts table.
func MRStartupDelay(s Scale) time.Duration {
	bytesPerCart := 45.0
	pass := bytesPerCart * float64(s.Users*s.CartsPerUser) / 400e6
	return time.Duration(2.2 * pass * float64(time.Second))
}

// Setup builds a deployment with the §7 warehouse loaded as external text
// tables on the DFS. Callers own env.Close.
func Setup(s Scale, senderCfg stream.SenderConfig) (*core.Env, error) {
	cfg := core.DefaultEnvConfig()
	cfg.Cost = CalibratedCost()
	cfg.BlockSize = 64 << 10
	cfg.SenderConfig = senderCfg
	cfg.MRStartupDelay = MRStartupDelay(s)
	env, err := core.NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	d, err := datagen.Generate(datagen.Config{Users: s.Users, CartsPerUser: s.CartsPerUser, Seed: s.Seed})
	if err != nil {
		env.Close()
		return nil, err
	}
	usersPath, cartsPath, err := datagen.WriteToDFS(d, env.FS, "/warehouse", env.Topo.Node(1))
	if err != nil {
		env.Close()
		return nil, err
	}
	if err := env.Engine.RegisterExternalTable("users", env.FS, usersPath, datagen.UsersSchema()); err != nil {
		env.Close()
		return nil, err
	}
	if err := env.Engine.RegisterExternalTable("carts", env.FS, cartsPath, datagen.CartsSchema()); err != nil {
		env.Close()
		return nil, err
	}
	// The warehouse load is setup, not measured.
	env.Cost.ResetStats()
	return env, nil
}

// PaperPipeline is the §7 pipeline configuration.
func PaperPipeline() core.PipelineConfig {
	return core.PipelineConfig{
		Query:          PaperQuery,
		Spec:           PaperSpec(),
		LabelCol:       "abandoned",
		LabelTransform: func(v float64) float64 { return v - 1 },
		K:              2,
	}
}

// StageTime is one (stage, simulated duration) pair of a run's breakdown.
type StageTime struct {
	Stage string
	Sim   time.Duration
}

// Figure3Row is one bar of Figure 3.
type Figure3Row struct {
	Approach string
	Stages   []StageTime
	TotalSim time.Duration
	Rows     int
}

// Figure3 runs the three approaches on one deployment and reports the
// per-stage simulated breakdown, regenerating the paper's Figure 3.
func Figure3(env *core.Env) ([]Figure3Row, error) {
	cfg := PaperPipeline()
	var rows []Figure3Row
	for _, a := range []core.Approach{core.Naive, core.InSQL, core.InSQLStream} {
		env.Cost.ResetStats()
		var stages []StageTime
		last := time.Duration(0)
		cfg.OnStage = func(stage string) {
			now := env.Cost.Stats().SimulatedTime
			stages = append(stages, StageTime{Stage: stage, Sim: now - last})
			last = now
		}
		res, err := core.Run(env, a, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", a, err)
		}
		rows = append(rows, Figure3Row{
			Approach: a.String(),
			Stages:   stages,
			TotalSim: env.Cost.Stats().SimulatedTime,
			Rows:     res.Rows,
		})
	}
	return rows, nil
}

// Figure4Row is one bar of Figure 4.
type Figure4Row struct {
	Tier     string
	Hit      string
	TotalSim time.Duration
}

// Figure4 primes the cache with one insql+stream run and then measures the
// three caching tiers, regenerating the paper's Figure 4. onDFS selects the
// paper's "actual HDFS table" materialisation (cache-served runs re-scan
// the DFS) instead of the in-memory materialized view.
func Figure4(env *core.Env, onDFS bool) ([]Figure4Row, error) {
	cfg := PaperPipeline()
	cfg.CachePopulate = true
	cfg.CacheOnDFS = onDFS
	if _, err := core.Run(env, core.InSQLStream, cfg); err != nil {
		return nil, fmt.Errorf("experiments: cache priming: %w", err)
	}
	cfg.CachePopulate = false
	var rows []Figure4Row
	for _, tier := range []core.CacheTier{core.CacheOff, core.CacheRecodeMaps, core.CacheFullResult} {
		cfg.Tier = tier
		env.Cost.ResetStats()
		res, err := core.Run(env, core.InSQLStream, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", tier, err)
		}
		rows = append(rows, Figure4Row{
			Tier:     tier.String(),
			Hit:      res.CacheHit.String(),
			TotalSim: env.Cost.Stats().SimulatedTime,
		})
	}
	return rows, nil
}

// SVMReport reproduces the §7 side note ("reading the transformed data
// from HDFS and running the SVMWithSGD for 10 iterations took 774
// seconds"): one insql run, then SVM training for the given iterations.
type SVMReport struct {
	IngestSim time.Duration
	TrainWall time.Duration
	Accuracy  float64
}

// SVMTraining measures ingestion plus SVM training on the paper pipeline.
func SVMTraining(env *core.Env, iterations int) (*SVMReport, error) {
	env.Cost.ResetStats()
	res, err := core.Run(env, core.InSQL, PaperPipeline())
	if err != nil {
		return nil, err
	}
	ingestSim := env.Cost.Stats().SimulatedTime
	sgd := ml.DefaultSGD()
	sgd.Iterations = iterations
	start := time.Now()
	model, err := ml.TrainSVMWithSGD(res.Dataset, sgd)
	if err != nil {
		return nil, err
	}
	return &SVMReport{
		IngestSim: ingestSim,
		TrainWall: time.Since(start),
		Accuracy:  ml.Accuracy(res.Dataset, model.Predict),
	}, nil
}

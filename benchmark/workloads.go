package main

import (
	"fmt"
	"time"

	"sqlml/internal/cluster"
	"sqlml/internal/core"
	"sqlml/internal/datagen"
	"sqlml/internal/experiments"
	"sqlml/internal/stream"
	"sqlml/internal/transform"
)

// The §5.1 follow-up of the paper query: a subset projection plus one more
// predicate, answerable from the cached transformed result.
const followUpQuery = `
	SELECT U.age, C.amount, C.abandoned
	FROM carts C, users U
	WHERE C.userid=U.userid AND U.country='USA' AND U.gender='F'`

// aggQuery drives the engine's pipeline breakers (join build + GROUP BY)
// instead of the streaming filter/probe/project path of the paper query.
const aggQuery = `
	SELECT U.age, U.gender, COUNT(*) AS ncarts, AVG(C.amount) AS avg_amount,
	       MAX(C.amount) AS max_amount, SUM(C.nitems) AS items,
	       AVG(CASE WHEN C.abandoned='Yes' THEN 1.0 ELSE 0.0 END) AS abandon_rate
	FROM carts C, users U
	WHERE C.userid=U.userid AND U.country='USA'
	GROUP BY U.userid, U.age, U.gender`

// refKind names the independent reference (reference.go) a step's dataset
// is checked against.
type refKind int

const (
	refPaper refKind = iota
	refFollowUp
	refAgg
)

// step is one core.Run of an op.
type step struct {
	cfg core.PipelineConfig
	ref refKind
}

// cached reports whether the step must be served from the cached
// transformed result rather than the warehouse tables.
func (s step) cached() bool { return s.cfg.Tier == core.CacheFullResult }

// workload is one benchmark input: an op runs steps in order, repeat times.
type workload struct {
	name     string
	approach core.Approach
	steps    []step
	repeat   int
	// primeCache runs the paper pipeline once during set-up with
	// CachePopulate, leaving the in-memory materialized view every step of
	// the workload must then be served from.
	primeCache bool
}

// runsPerOp is how many pipeline runs one op times.
func (w *workload) runsPerOp() int { return w.repeat * len(w.steps) }

func paperStep() step { return step{cfg: experiments.PaperPipeline(), ref: refPaper} }

func workloads() []*workload {
	cachedPaper := paperStep()
	cachedPaper.cfg.Tier = core.CacheFullResult
	followUp := cachedPaper
	followUp.cfg.Query = followUpQuery
	followUp.cfg.Spec = transform.Spec{RecodeCols: []string{"abandoned"}}
	followUp.ref = refFollowUp

	agg := step{ref: refAgg, cfg: core.PipelineConfig{
		Query: aggQuery,
		Spec: transform.Spec{
			RecodeCols: []string{"gender"},
			CodeCols:   []string{"gender"},
			Coding:     transform.CodingDummy,
		},
		LabelCol: "abandon_rate",
		K:        2,
	}}

	return []*workload{
		{name: "paper_stream", approach: core.InSQLStream, steps: []step{paperStep()}, repeat: 1},
		{name: "paper_dfs", approach: core.InSQL, steps: []step{paperStep()}, repeat: 1},
		{name: "cached_stream", approach: core.InSQLStream, steps: []step{cachedPaper, followUp}, repeat: 5, primeCache: true},
		{name: "agg_prep", approach: core.InSQLStream, steps: []step{agg}, repeat: 1},
	}
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scale sizes the generated warehouse.
type scale struct {
	users, cartsPerUser int
	seed                int64
}

func (s scale) carts() int { return s.users * s.cartsPerUser }

func (s scale) String() string {
	return fmt.Sprintf("%dx%d (%d carts)", s.users, s.cartsPerUser, s.carts())
}

// setup builds the deployment the workload runs on: experiments.Setup (5
// nodes, replication 3, 64 KB blocks, the calibrated cost model, default
// sender), plus the cache priming run where the workload has one. Its
// duration is the setup_s metric.
func setup(w *workload, sc scale, costed bool) (*core.Env, time.Duration, error) {
	start := time.Now()
	var env *core.Env
	var err error
	if costed {
		env, err = experiments.Setup(experiments.Scale{Users: sc.users, CartsPerUser: sc.cartsPerUser, Seed: sc.seed}, stream.DefaultSenderConfig())
	} else {
		env, err = setupUncosted(sc)
	}
	if err != nil {
		return nil, 0, err
	}
	if w.primeCache {
		cfg := experiments.PaperPipeline()
		cfg.CachePopulate = true
		if _, err := core.Run(env, core.InSQLStream, cfg); err != nil {
			env.Close()
			return nil, 0, fmt.Errorf("cache priming: %w", err)
		}
		if env.Cache.Len() != 1 {
			env.Close()
			return nil, 0, fmt.Errorf("cache priming stored %d entries, want 1", env.Cache.Len())
		}
	}
	env.Cost.ResetStats()
	return env, time.Since(start), nil
}

// setupUncosted is experiments.Setup with EnvConfig.Cost left nil, which
// Setup cannot express: the deployment cluster.cost_overhead_ms compares
// against.
func setupUncosted(sc scale) (*core.Env, error) {
	cfg := core.DefaultEnvConfig()
	cfg.BlockSize = 64 << 10
	env, err := core.NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	d, err := datagen.Generate(datagen.Config{Users: sc.users, CartsPerUser: sc.cartsPerUser, Seed: sc.seed})
	if err != nil {
		env.Close()
		return nil, err
	}
	usersPath, cartsPath, err := datagen.WriteToDFS(d, env.FS, warehouseDir, env.Topo.Node(1))
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
	return env, nil
}

// warehouseDir is where experiments.Setup loads the tables.
const warehouseDir = "/warehouse"

// cleanStaging deletes what an insql run leaves on the DFS. Without it the
// staging directories accumulate and paper_dfs's resident set grows with
// the op count.
func cleanStaging(env *core.Env) error {
	for _, p := range env.FS.List("/staging") {
		if err := env.FS.Delete(p); err != nil {
			return err
		}
	}
	return nil
}

// workerNode is the node SQL worker i (and its colocated ML workers) runs on.
func workerNode(env *core.Env, i int) *cluster.Node {
	return env.Engine.WorkerNode(i % env.Engine.NumWorkers())
}

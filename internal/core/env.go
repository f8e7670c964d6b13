// Package core glues the substrates into the paper's integrated analytics
// pipelines: the three ways of connecting the big SQL system to the big ML
// system that Figure 3 compares —
//
//	naive        SQL → materialise on DFS → Jaql/MapReduce transform →
//	             materialise on DFS → ML reads DFS
//	insql        SQL + In-SQL transform (pipelined) → materialise on
//	             DFS → ML reads DFS
//	insql+stream SQL + In-SQL transform + parallel streaming transfer,
//	             never touching the DFS
//
// plus the §5 caching tiers Figure 4 measures on top of insql+stream.
package core

import (
	"fmt"
	"time"

	"sqlml/internal/cache"
	"sqlml/internal/cluster"
	"sqlml/internal/dfs"
	"sqlml/internal/sqlengine"
	"sqlml/internal/stream"
	"sqlml/internal/transform"
)

// EnvConfig sizes the simulated deployment.
type EnvConfig struct {
	// Nodes is the cluster size; node 0 is the head node (the paper's
	// testbed: 1 head + 4 worker servers).
	Nodes int
	// DFS settings.
	BlockSize   int64
	Replication int
	// Cost is the simulated I/O cost model; nil disables cost charging.
	Cost *cluster.CostModel
	// SenderConfig tunes the streaming transfer (buffer sizes etc.).
	SenderConfig stream.SenderConfig
	// MRStartupDelay is the simulated per-MapReduce-job startup overhead
	// the naive pipeline's external transformation tool pays.
	MRStartupDelay time.Duration
	// TaskFault, when set, is consulted by every MapReduce task in the
	// naive pipeline — the fault-injection seam for scripted task crashes.
	TaskFault func(phase string, task, attempt, record int) error
}

// DefaultEnvConfig mirrors the paper's deployment shape.
func DefaultEnvConfig() EnvConfig {
	return EnvConfig{Nodes: 5, Replication: 3, SenderConfig: stream.DefaultSenderConfig()}
}

// Env is a fully wired deployment: cluster, DFS, SQL engine (with the
// transformation and streaming UDFs registered), MapReduce task nodes, a
// running stream coordinator, and a §5 cache store.
type Env struct {
	Topo      *cluster.Topology
	Cost      *cluster.CostModel
	FS        *dfs.FileSystem
	Engine    *sqlengine.Engine
	Coord     *stream.Coordinator
	CoordAddr string
	Cache     *cache.Store
	// WorkerIDs are the node ids hosting SQL workers and MapReduce tasks.
	WorkerIDs []int
	// SenderConfig is the streaming sender configuration in use.
	SenderConfig stream.SenderConfig
	// MRStartupDelay is the simulated per-MapReduce-job startup overhead.
	MRStartupDelay time.Duration
	// TaskFault is forwarded to the naive pipeline's MapReduce jobs.
	TaskFault func(phase string, task, attempt, record int) error
}

// NewEnv builds and starts a deployment. Call Close when done.
func NewEnv(cfg EnvConfig) (*Env, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("core: need at least 2 nodes (head + worker)")
	}
	topo := cluster.NewTopology(cfg.Nodes)
	workerIDs := make([]int, 0, cfg.Nodes-1)
	for i := 1; i < cfg.Nodes; i++ {
		workerIDs = append(workerIDs, i)
	}
	fs := dfs.New(topo, dfs.Config{BlockSize: cfg.BlockSize, Replication: cfg.Replication, Cost: cfg.Cost})
	eng, err := sqlengine.New(topo, cfg.Cost, sqlengine.Config{HeadNodeID: 0, WorkerNodeIDs: workerIDs})
	if err != nil {
		return nil, err
	}
	if err := transform.RegisterUDFs(eng); err != nil {
		return nil, err
	}
	if err := stream.RegisterSenderUDF(eng, cfg.SenderConfig); err != nil {
		return nil, err
	}
	env := &Env{
		Topo:           topo,
		Cost:           cfg.Cost,
		FS:             fs,
		Engine:         eng,
		Cache:          cache.NewStore(),
		WorkerIDs:      workerIDs,
		SenderConfig:   cfg.SenderConfig,
		MRStartupDelay: cfg.MRStartupDelay,
		TaskFault:      cfg.TaskFault,
	}
	env.Coord = stream.NewCoordinator(nil)
	addr, err := env.Coord.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env.CoordAddr = addr
	return env, nil
}

// Close stops the deployment's services.
func (e *Env) Close() {
	if e.Coord != nil {
		e.Coord.Stop()
	}
}

// WorkerNodes returns the worker nodes (ML workers are placed on the same
// servers, as in the paper's testbed).
func (e *Env) WorkerNodes() []*cluster.Node {
	out := make([]*cluster.Node, len(e.WorkerIDs))
	for i, id := range e.WorkerIDs {
		out[i] = e.Topo.Node(id)
	}
	return out
}

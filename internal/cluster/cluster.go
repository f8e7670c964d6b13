// Package cluster models the simulated cluster the experiments run on: a set
// of named nodes with addresses, plus a cost model that charges simulated
// time for disk and network traffic.
//
// The paper's testbed is a 5-server cluster with 12 SATA disks and a 10 GbE
// NIC per node. This repository runs everything in one process, so the cost
// model is what preserves the *shape* of the results: materialising data to
// the DFS pays disk+replication costs, remote streaming pays network costs,
// and node-local streaming is free — exactly the trade-offs §3 and §7 of the
// paper measure.
package cluster

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Node is one simulated server.
type Node struct {
	ID   int
	Name string
	// Addr is the node's simulated IP address. Locality comparisons
	// throughout the repository (InputSplit locations, stream matchmaking)
	// are done on this address, mirroring the paper's use of SQL-worker IPs
	// as split locations.
	Addr string
}

// Topology is an immutable set of nodes.
type Topology struct {
	nodes []*Node
}

// NewTopology creates n simulated nodes named node0..node{n-1} with
// addresses 10.0.0.1..10.0.0.n.
func NewTopology(n int) *Topology {
	if n <= 0 {
		panic("cluster: topology needs at least one node")
	}
	t := &Topology{nodes: make([]*Node, n)}
	for i := 0; i < n; i++ {
		t.nodes[i] = &Node{
			ID:   i,
			Name: fmt.Sprintf("node%d", i),
			Addr: fmt.Sprintf("10.0.0.%d", i+1),
		}
	}
	return t
}

// Len returns the number of nodes.
func (t *Topology) Len() int { return len(t.nodes) }

// Nodes returns all nodes in ID order. Callers must not mutate the slice.
func (t *Topology) Nodes() []*Node { return t.nodes }

// Node returns the node with the given ID.
func (t *Topology) Node(id int) *Node {
	if id < 0 || id >= len(t.nodes) {
		panic(fmt.Sprintf("cluster: node %d out of range [0,%d)", id, len(t.nodes)))
	}
	return t.nodes[id]
}

// ByAddr returns the node with the given simulated address, or nil.
func (t *Topology) ByAddr(addr string) *Node {
	for _, n := range t.nodes {
		if n.Addr == addr {
			return n
		}
	}
	return nil
}

// CostModel charges simulated time for disk, network and processing work.
//
// Each charge converts bytes to a duration at the simulated rates below and
// adds it to one counter; nothing sleeps and no device is queued. The
// simulated time is therefore device time summed over every node — the
// total work of a run, not its elapsed time on the simulated cluster.
type CostModel struct {
	DiskReadBps  float64 // simulated disk read bandwidth, bytes/second
	DiskWriteBps float64 // simulated disk write bandwidth, bytes/second
	NetBps       float64 // simulated NIC bandwidth, bytes/second
	NetLatency   time.Duration
	// ProcBps is the simulated row-processing throughput per node. The
	// paper's caching gains are measured in saved *passes over the data*
	// (e.g. the recode-map cache avoids one of recoding's two passes), so
	// engines charge this for every pass: table-UDF inputs, join probes,
	// and MapReduce task inputs.
	ProcBps float64

	diskReadBytes  atomic.Int64
	diskWriteBytes atomic.Int64
	netBytes       atomic.Int64
	procBytes      atomic.Int64
	simulatedNanos atomic.Int64
}

// Stats is a snapshot of accumulated cost counters.
type Stats struct {
	DiskReadBytes  int64
	DiskWriteBytes int64
	NetBytes       int64
	ProcBytes      int64
	SimulatedTime  time.Duration
}

// Stats returns the accumulated counters. Safe for concurrent use.
func (c *CostModel) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		DiskReadBytes:  c.diskReadBytes.Load(),
		DiskWriteBytes: c.diskWriteBytes.Load(),
		NetBytes:       c.netBytes.Load(),
		ProcBytes:      c.procBytes.Load(),
		SimulatedTime:  time.Duration(c.simulatedNanos.Load()),
	}
}

// ResetStats zeroes the accumulated counters.
func (c *CostModel) ResetStats() {
	if c == nil {
		return
	}
	c.diskReadBytes.Store(0)
	c.diskWriteBytes.Store(0)
	c.netBytes.Store(0)
	c.procBytes.Store(0)
	c.simulatedNanos.Store(0)
}

func (c *CostModel) duration(bytes int, bps float64) time.Duration {
	if bps <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / bps * float64(time.Second))
}

// charge adds d of simulated device time to the counter.
func (c *CostModel) charge(d time.Duration) {
	if d > 0 {
		c.simulatedNanos.Add(int64(d))
	}
}

// ChargeDiskRead charges a read of n bytes against node's disk.
func (c *CostModel) ChargeDiskRead(node *Node, n int) {
	if c == nil || node == nil {
		return
	}
	c.diskReadBytes.Add(int64(n))
	c.charge(c.duration(n, c.DiskReadBps))
}

// ChargeDiskWrite charges a write of n bytes against node's disk.
func (c *CostModel) ChargeDiskWrite(node *Node, n int) {
	if c == nil || node == nil {
		return
	}
	c.diskWriteBytes.Add(int64(n))
	c.charge(c.duration(n, c.DiskWriteBps))
}

// ChargeNet charges a transfer of n bytes between two nodes. Transfers where
// both endpoints are the same node are free (loopback), which is what makes
// the stream coordinator's locality-aware placement matter.
func (c *CostModel) ChargeNet(from, to *Node, n int) {
	if c == nil || from == nil || to == nil || from == to {
		return
	}
	c.netBytes.Add(int64(n))
	d := c.NetLatency + c.duration(n, c.NetBps)
	// Charge the sender's NIC; the receiver's side is assumed symmetric and
	// charging both would double-count a single wire transfer.
	c.charge(d)
}

// ChargeProc charges one processing pass over n bytes on node's CPU.
func (c *CostModel) ChargeProc(node *Node, n int) {
	if c == nil || node == nil {
		return
	}
	c.procBytes.Add(int64(n))
	c.charge(c.duration(n, c.ProcBps))
}

// ChargeDelay charges a fixed simulated duration against node's CPU —
// e.g. a MapReduce job's startup/scheduling overhead.
func (c *CostModel) ChargeDelay(node *Node, d time.Duration) {
	if c == nil || node == nil || d <= 0 {
		return
	}
	c.charge(d)
}

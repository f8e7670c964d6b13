// Failure-injection coverage for the DFS: replica fallback under node
// failure (including mid-read and under concurrent readers, race-clean)
// and scripted datanode faults through the FaultHook seam. This file is an
// external test package because internal/fault imports hadoopfmt, which
// imports dfs.
package dfs_test

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"
	"time"

	"sqlml/internal/cluster"
	"sqlml/internal/dfs"
	"sqlml/internal/fault"
)

func failoverFS(t *testing.T, nodes, replication int, blockSize int64) (*dfs.FileSystem, *cluster.Topology) {
	t.Helper()
	topo := cluster.NewTopology(nodes)
	cost := &cluster.CostModel{DiskReadBps: 1e9, DiskWriteBps: 1e9, NetBps: 1e9}
	return dfs.New(topo, dfs.Config{BlockSize: blockSize, Replication: replication, Cost: cost}), topo
}

func patternData(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 31)
	}
	return data
}

// TestConcurrentReadersSurviveNodeFailure: readers running while a
// datanode fails (and later recovers) never observe an error or corrupt
// bytes — every fetch transparently falls back to a surviving replica.
// Meant to run under -race: the failure toggles concurrently with reads.
func TestConcurrentReadersSurviveNodeFailure(t *testing.T) {
	fs, topo := failoverFS(t, 5, 3, 128)
	want := patternData(128 * 6) // several blocks
	if err := fs.WriteFile("/f/conc", want, topo.Node(1)); err != nil {
		t.Fatal(err)
	}

	const readers = 8
	const rounds = 30
	var wg sync.WaitGroup
	errCh := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			node := topo.Node(g % 5)
			for i := 0; i < rounds; i++ {
				got, err := fs.ReadFile("/f/conc", node)
				if err != nil {
					errCh <- fmt.Errorf("reader %d round %d: %w", g, i, err)
					return
				}
				if !bytes.Equal(got, want) {
					errCh <- fmt.Errorf("reader %d round %d: corrupt read", g, i)
					return
				}
			}
		}(g)
	}
	// Fail node 1 (the writer's local replica holder) mid-flight, then
	// recover it; readers must never notice.
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(2 * time.Millisecond)
		fs.SetNodeDown(1, true)
		time.Sleep(5 * time.Millisecond)
		fs.SetNodeDown(1, false)
	}()
	wg.Wait()
	<-done
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestMidReadNodeFailureFallsBack: a node failing between two block
// fetches of one open reader is invisible — the remaining blocks come
// from surviving replicas and the bytes are identical.
func TestMidReadNodeFailureFallsBack(t *testing.T) {
	fs, topo := failoverFS(t, 4, 2, 64)
	want := patternData(64 * 4)
	if err := fs.WriteFile("/f/midread", want, topo.Node(0)); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open("/f/midread", topo.Node(0))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := r.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()
	// Consume the first block (served from node 0, the local replica),
	// then fail node 0 before the rest is fetched.
	head := make([]byte, 64)
	if _, err := io.ReadFull(r, head); err != nil {
		t.Fatal(err)
	}
	fs.SetNodeDown(0, true)
	defer fs.SetNodeDown(0, false)
	rest, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("read after mid-read node failure: %v", err)
	}
	got := append(head, rest...)
	if !bytes.Equal(got, want) {
		t.Error("bytes differ after mid-read failover")
	}
}

// TestInjectedReadFaultFallsBackPerReplica: a scripted read fault on one
// datanode (node up, access failing — a sick disk, not a dead machine)
// sends the reader to the next replica without surfacing an error.
func TestInjectedReadFaultFallsBackPerReplica(t *testing.T) {
	fs, topo := failoverFS(t, 4, 2, 64)
	want := patternData(64 * 3)
	if err := fs.WriteFile("/f/sick", want, topo.Node(0)); err != nil {
		t.Fatal(err)
	}
	faults := fault.NewDFSFaults(fault.DFSConfig{Node: 0}) // FailReads 0 = forever
	fs.SetFaultHook(faults)
	defer fs.SetFaultHook(nil)
	got, err := fs.ReadFile("/f/sick", topo.Node(0))
	if err != nil {
		t.Fatalf("read with sick replica: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("bytes differ when falling back from a sick replica")
	}
	if failedReads, _ := faults.Stats(); failedReads == 0 {
		t.Error("fault hook never fired; the fallback path went untested")
	}
}

// TestInjectedWriteFaultShrinksPipeline: a replica store failing during
// the write pipeline drops that replica (shrunk replication) instead of
// failing the file; the committed file reads back intact and its block
// metadata excludes the failed node.
func TestInjectedWriteFaultShrinksPipeline(t *testing.T) {
	fs, topo := failoverFS(t, 4, 2, 64)
	faults := fault.NewDFSFaults(fault.DFSConfig{Node: 1, FailWrites: 100})
	fs.SetFaultHook(faults)
	defer fs.SetFaultHook(nil)
	want := patternData(64 * 3)
	if err := fs.WriteFile("/f/shrunk", want, topo.Node(1)); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/f/shrunk", topo.Node(2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("bytes differ after pipeline shrink")
	}
	info, err := fs.Stat("/f/shrunk")
	if err != nil {
		t.Fatal(err)
	}
	sickAddr := topo.Node(1).Addr
	for _, b := range info.Blocks {
		for _, h := range b.Hosts {
			if h == sickAddr {
				t.Errorf("block at offset %d lists the failed pipeline node %s", b.Offset, h)
			}
		}
	}
	if _, failedWrites := faults.Stats(); failedWrites == 0 {
		t.Error("write fault never fired")
	}
}

// TestAllPipelineReplicasFailingFailsWrite: when every replica store is
// scripted to fail, the write errors instead of committing an unreadable
// file.
func TestAllPipelineReplicasFailingFailsWrite(t *testing.T) {
	fs, topo := failoverFS(t, 1, 1, 64)
	faults := fault.NewDFSFaults(fault.DFSConfig{Node: 0, FailWrites: 100})
	fs.SetFaultHook(faults)
	defer fs.SetFaultHook(nil)
	err := fs.WriteFile("/f/doomed", patternData(64), topo.Node(0))
	if err == nil {
		t.Fatal("write committed despite every pipeline replica failing")
	}
	if fs.Exists("/f/doomed") {
		t.Error("failed write left a committed file behind")
	}
}

// readRecorder fails every block read and records which node was asked.
type readRecorder struct {
	mu    sync.Mutex
	nodes []int
}

func (h *readRecorder) BlockRead(nodeID int, _ int64) error {
	h.mu.Lock()
	h.nodes = append(h.nodes, nodeID)
	h.mu.Unlock()
	return fmt.Errorf("injected read failure on node %d", nodeID)
}
func (h *readRecorder) BlockWrite(int, int64) error { return nil }

// TestReplicaFallbackOrder pins the order a block fetch tries replicas in:
// the reader's own replica first, then the others in placement order; a
// reader holding none tries them all in placement order. When every
// replica fails, the error names the block, the replica count and the
// last replica's failure. A local
// read, even of a replica placed second, charges disk and no network.
func TestReplicaFallbackOrder(t *testing.T) {
	topo := cluster.NewTopology(5)
	cost := &cluster.CostModel{DiskReadBps: 1e9, DiskWriteBps: 1e9, NetBps: 1e9}
	fs := dfs.New(topo, dfs.Config{BlockSize: 64, Replication: 3, Cost: cost})
	want := patternData(48) // one block
	if err := fs.WriteFile("/f/order", want, topo.Node(0)); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat("/f/order")
	if err != nil {
		t.Fatal(err)
	}
	byAddr := map[string]int{}
	for _, n := range topo.Nodes() {
		byAddr[n.Addr] = n.ID
	}
	var placed []int
	for _, h := range info.Blocks[0].Hosts {
		placed = append(placed, byAddr[h])
	}
	outsider := -1
	for _, n := range topo.Nodes() {
		if !slices.Contains(placed, n.ID) {
			outsider = n.ID
			break
		}
	}
	if len(placed) != 3 || outsider < 0 {
		t.Fatalf("placement %v on 5 nodes, want 3 replicas and an outsider", placed)
	}
	for _, tc := range []struct {
		name   string
		reader int
		want   []int
	}{
		{"local-second", placed[1], []int{placed[1], placed[0], placed[2]}},
		{"local-first", placed[0], placed},
		{"non-local", outsider, placed},
	} {
		rec := &readRecorder{}
		fs.SetFaultHook(rec)
		_, err := fs.ReadFile("/f/order", topo.Node(tc.reader))
		fs.SetFaultHook(nil)
		wantErr := fmt.Sprintf("dfs: block 0: no readable replica among 3: injected read failure on node %d", tc.want[2])
		if err == nil || err.Error() != wantErr {
			t.Errorf("%s: err = %v, want %s", tc.name, err, wantErr)
		}
		if !slices.Equal(rec.nodes, tc.want) {
			t.Errorf("%s: replicas tried %v, want %v", tc.name, rec.nodes, tc.want)
		}
	}

	cost.ResetStats()
	got, err := fs.ReadFile("/f/order", topo.Node(placed[1]))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("local read: %v", err)
	}
	if s := cost.Stats(); s.NetBytes != 0 || s.DiskReadBytes != int64(len(want)) {
		t.Errorf("local read of the second-placed replica charged %+v, want disk %d and no network", s, len(want))
	}
}

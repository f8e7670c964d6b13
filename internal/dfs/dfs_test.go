package dfs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"sqlml/internal/cluster"
)

func newTestFS(t *testing.T, nodes int, blockSize int64, replication int) *FileSystem {
	t.Helper()
	topo := cluster.NewTopology(nodes)
	return New(topo, Config{BlockSize: blockSize, Replication: replication})
}

// TotalUsed returns the number of stored block bytes across all datanodes,
// replicas counted.
func (fs *FileSystem) TotalUsed() int64 {
	var total int64
	for _, dn := range fs.datanodes {
		dn.mu.RLock()
		for _, b := range dn.blocks {
			total += int64(len(b))
		}
		dn.mu.RUnlock()
	}
	return total
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := newTestFS(t, 4, 64, 3)
	data := []byte("hello distributed file system, this text spans several 64-byte blocks for sure........")
	if err := fs.WriteFile("/t/a.txt", data, fs.Topology().Node(1)); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/t/a.txt", fs.Topology().Node(2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("round trip mismatch: got %q", got)
	}
}

func TestCreateRejectsDuplicatesAndBadPaths(t *testing.T) {
	fs := newTestFS(t, 2, 1024, 1)
	node := fs.Topology().Node(0)
	if err := fs.WriteFile("/x", []byte("1"), node); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/x", []byte("2"), node); err == nil {
		t.Error("duplicate create accepted")
	}
	for _, p := range []string{"", "relative", "/a//b", "/trailing/"} {
		if _, err := fs.Create(p, node); err == nil {
			t.Errorf("bad path %q accepted", p)
		}
	}
}

func TestWriterVisibilityOnlyAfterClose(t *testing.T) {
	fs := newTestFS(t, 2, 16, 1)
	w, err := fs.Create("/pending", fs.Topology().Node(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(bytes.Repeat([]byte("x"), 100)); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/pending") {
		t.Error("file visible before Close")
	}
	if _, err := fs.Create("/pending", fs.Topology().Node(1)); err == nil {
		t.Error("second concurrent writer accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/pending") {
		t.Error("file missing after Close")
	}
	info, err := fs.Stat("/pending")
	if err != nil || info.Size != 100 {
		t.Errorf("Stat: %+v %v", info, err)
	}
}

func TestAbortDiscardsBlocks(t *testing.T) {
	fs := newTestFS(t, 2, 16, 2)
	w, err := fs.Create("/gone", fs.Topology().Node(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(bytes.Repeat([]byte("y"), 64)); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if fs.Exists("/gone") {
		t.Error("aborted file exists")
	}
	if used := fs.TotalUsed(); used != 0 {
		t.Errorf("aborted blocks still stored: %d bytes", used)
	}
	// Path is reusable after abort.
	if err := fs.WriteFile("/gone", []byte("z"), fs.Topology().Node(0)); err != nil {
		t.Errorf("path not reusable after abort: %v", err)
	}
}

func TestReplicationFactorRespected(t *testing.T) {
	fs := newTestFS(t, 5, 32, 3)
	data := bytes.Repeat([]byte("r"), 100) // 4 blocks at size 32
	if err := fs.WriteFile("/rep", data, fs.Topology().Node(2)); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat("/rep")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Blocks) != 4 {
		t.Fatalf("expected 4 blocks, got %d", len(info.Blocks))
	}
	for i, b := range info.Blocks {
		if len(b.Hosts) != 3 {
			t.Errorf("block %d has %d replicas, want 3", i, len(b.Hosts))
		}
		if b.Hosts[0] != fs.Topology().Node(2).Addr {
			t.Errorf("block %d first replica %s is not the writer's node", i, b.Hosts[0])
		}
	}
	if used := fs.TotalUsed(); used != 300 {
		t.Errorf("TotalUsed = %d, want 300 (100 bytes x3 replicas)", used)
	}
}

func TestReplicationClampedToClusterSize(t *testing.T) {
	fs := newTestFS(t, 2, 1024, 3)
	if err := fs.WriteFile("/c", []byte("ab"), fs.Topology().Node(0)); err != nil {
		t.Fatal(err)
	}
	info, _ := fs.Stat("/c")
	if len(info.Blocks[0].Hosts) != 2 {
		t.Errorf("replication should clamp to 2, got %d", len(info.Blocks[0].Hosts))
	}
}

func TestBlockLocationsAndOffsets(t *testing.T) {
	fs := newTestFS(t, 3, 10, 1)
	if err := fs.WriteFile("/b", bytes.Repeat([]byte("z"), 25), fs.Topology().Node(0)); err != nil {
		t.Fatal(err)
	}
	info, _ := fs.Stat("/b")
	wantOffsets := []int64{0, 10, 20}
	wantLens := []int64{10, 10, 5}
	if len(info.Blocks) != 3 {
		t.Fatalf("blocks = %d", len(info.Blocks))
	}
	for i, b := range info.Blocks {
		if b.Offset != wantOffsets[i] || b.Length != wantLens[i] {
			t.Errorf("block %d: offset %d len %d, want %d %d", i, b.Offset, b.Length, wantOffsets[i], wantLens[i])
		}
	}
}

func TestOpenRange(t *testing.T) {
	fs := newTestFS(t, 2, 8, 1)
	data := []byte("0123456789abcdefghij")
	if err := fs.WriteFile("/r", data, fs.Topology().Node(0)); err != nil {
		t.Fatal(err)
	}
	r, err := fs.OpenRange("/r", 5, 10, fs.Topology().Node(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "56789abcde" {
		t.Errorf("range read = %q", got)
	}
	if _, err := fs.OpenRange("/r", 15, 10, nil); err == nil {
		t.Error("out-of-range read accepted")
	}
	if _, err := fs.OpenRange("/r", -1, 2, nil); err == nil {
		t.Error("negative offset accepted")
	}
}

func TestDeleteFreesBlocks(t *testing.T) {
	fs := newTestFS(t, 3, 16, 2)
	if err := fs.WriteFile("/d", bytes.Repeat([]byte("q"), 64), fs.Topology().Node(0)); err != nil {
		t.Fatal(err)
	}
	if fs.TotalUsed() != 128 {
		t.Fatalf("used = %d", fs.TotalUsed())
	}
	if err := fs.Delete("/d"); err != nil {
		t.Fatal(err)
	}
	if fs.TotalUsed() != 0 {
		t.Error("blocks not freed on delete")
	}
	if err := fs.Delete("/d"); err == nil {
		t.Error("double delete accepted")
	}
}

func TestRename(t *testing.T) {
	fs := newTestFS(t, 2, 1024, 1)
	node := fs.Topology().Node(0)
	if err := fs.WriteFile("/old", []byte("data"), node); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/old", "/new"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/old") || !fs.Exists("/new") {
		t.Error("rename did not move the file")
	}
	got, _ := fs.ReadFile("/new", node)
	if string(got) != "data" {
		t.Errorf("content after rename = %q", got)
	}
	if err := fs.Rename("/missing", "/x"); err == nil {
		t.Error("rename of missing file accepted")
	}
	if err := fs.WriteFile("/other", []byte("o"), node); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/new", "/other"); err == nil {
		t.Error("rename onto existing file accepted")
	}
}

func TestList(t *testing.T) {
	fs := newTestFS(t, 2, 1024, 1)
	node := fs.Topology().Node(0)
	for _, p := range []string{"/a/1", "/a/2", "/b/1"} {
		if err := fs.WriteFile(p, []byte("x"), node); err != nil {
			t.Fatal(err)
		}
	}
	got := fs.List("/a")
	if len(got) != 2 || got[0] != "/a/1" || got[1] != "/a/2" {
		t.Errorf("List(/a) = %v", got)
	}
	if all := fs.List("/"); len(all) != 3 {
		t.Errorf("List(/) = %v", all)
	}
}

func TestCostChargedForReplicatedWriteAndRemoteRead(t *testing.T) {
	topo := cluster.NewTopology(4)
	cost := &cluster.CostModel{DiskReadBps: 1e6, DiskWriteBps: 1e6, NetBps: 1e6}
	fs := New(topo, Config{BlockSize: 1024, Replication: 3, Cost: cost})
	data := bytes.Repeat([]byte("c"), 1000)
	if err := fs.WriteFile("/cost", data, topo.Node(0)); err != nil {
		t.Fatal(err)
	}
	s := cost.Stats()
	if s.DiskWriteBytes != 3000 {
		t.Errorf("disk write bytes = %d, want 3000 (3 replicas)", s.DiskWriteBytes)
	}
	if s.NetBytes != 2000 {
		t.Errorf("net bytes = %d, want 2000 (2 remote replicas)", s.NetBytes)
	}
	cost.ResetStats()

	// Local read: node 0 holds a replica, so no network cost.
	if _, err := fs.ReadFile("/cost", topo.Node(0)); err != nil {
		t.Fatal(err)
	}
	if s := cost.Stats(); s.NetBytes != 0 || s.DiskReadBytes != 1000 {
		t.Errorf("local read stats = %+v", s)
	}
	cost.ResetStats()

	// Remote read from a node without a replica pays the network.
	info, _ := fs.Stat("/cost")
	var nonReplica *cluster.Node
	for _, n := range topo.Nodes() {
		holds := false
		for _, h := range info.Blocks[0].Hosts {
			if h == n.Addr {
				holds = true
			}
		}
		if !holds {
			nonReplica = n
			break
		}
	}
	if nonReplica == nil {
		t.Fatal("expected a node without a replica")
	}
	if _, err := fs.ReadFile("/cost", nonReplica); err != nil {
		t.Fatal(err)
	}
	if s := cost.Stats(); s.NetBytes != 1000 {
		t.Errorf("remote read net bytes = %d, want 1000", s.NetBytes)
	}
}

func TestConcurrentWritersAndReaders(t *testing.T) {
	fs := newTestFS(t, 4, 128, 2)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("/conc/%d", i)
			data := bytes.Repeat([]byte{byte('a' + i%26)}, 300+i)
			node := fs.Topology().Node(i % 4)
			if err := fs.WriteFile(path, data, node); err != nil {
				errs <- err
				return
			}
			got, err := fs.ReadFile(path, fs.Topology().Node((i+1)%4))
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, data) {
				errs <- fmt.Errorf("mismatch on %s", path)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := len(fs.List("/conc")); got != 16 {
		t.Errorf("files written = %d, want 16", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	fs := newTestFS(t, 3, 37, 2) // odd block size to exercise boundaries
	i := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500)
		data := make([]byte, n)
		rng.Read(data)
		i++
		path := fmt.Sprintf("/prop/%d", i)
		if err := fs.WriteFile(path, data, fs.Topology().Node(i%3)); err != nil {
			return false
		}
		got, err := fs.ReadFile(path, fs.Topology().Node((i+1)%3))
		if err != nil {
			return false
		}
		if !bytes.Equal(got, data) {
			return false
		}
		// Random sub-range must match the same slice of the original.
		if n > 0 {
			off := rng.Intn(n)
			l := rng.Intn(n - off)
			r, err := fs.OpenRange(path, int64(off), int64(l), nil)
			if err != nil {
				return false
			}
			sub, err := io.ReadAll(r)
			if err != nil || !bytes.Equal(sub, data[off:off+l]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEmptyFile(t *testing.T) {
	fs := newTestFS(t, 2, 64, 1)
	if err := fs.WriteFile("/empty", nil, fs.Topology().Node(0)); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/empty", fs.Topology().Node(1))
	if err != nil || len(got) != 0 {
		t.Errorf("empty file read: %q %v", got, err)
	}
	info, _ := fs.Stat("/empty")
	if info.Size != 0 || len(info.Blocks) != 0 {
		t.Errorf("empty file info: %+v", info)
	}
}

func TestDataNodeFailureReadFallback(t *testing.T) {
	fs := newTestFS(t, 4, 64, 3)
	data := bytes.Repeat([]byte("failover"), 40)
	if err := fs.WriteFile("/ha", data, fs.Topology().Node(0)); err != nil {
		t.Fatal(err)
	}
	info, _ := fs.Stat("/ha")
	// Fail the first replica of every block; reads must fall back.
	firstReplica := fs.Topology().ByAddr(info.Blocks[0].Hosts[0])
	fs.SetNodeDown(firstReplica.ID, true)
	got, err := fs.ReadFile("/ha", firstReplica)
	if err != nil {
		t.Fatalf("read with one failed replica: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("failover read returned wrong data")
	}
	// Fail every replica: the read must error, not hang or corrupt.
	for _, h := range info.Blocks[0].Hosts {
		fs.SetNodeDown(fs.Topology().ByAddr(h).ID, true)
	}
	if _, err := fs.ReadFile("/ha", fs.Topology().Node(3)); err == nil {
		t.Error("read with all replicas failed should error")
	}
	// Recovery restores service.
	for _, h := range info.Blocks[0].Hosts {
		fs.SetNodeDown(fs.Topology().ByAddr(h).ID, false)
	}
	if _, err := fs.ReadFile("/ha", fs.Topology().Node(3)); err != nil {
		t.Errorf("read after recovery: %v", err)
	}
}

func TestWritesAvoidFailedNodes(t *testing.T) {
	fs := newTestFS(t, 4, 64, 3)
	fs.SetNodeDown(1, true)
	if err := fs.WriteFile("/w", bytes.Repeat([]byte("x"), 200), fs.Topology().Node(0)); err != nil {
		t.Fatal(err)
	}
	info, _ := fs.Stat("/w")
	downAddr := fs.Topology().Node(1).Addr
	for _, b := range info.Blocks {
		for _, h := range b.Hosts {
			if h == downAddr {
				t.Fatalf("block placed on failed node %s", downAddr)
			}
		}
	}
	if len(info.Blocks[0].Hosts) != 3 {
		t.Errorf("replication = %d, want 3 (three nodes remain)", len(info.Blocks[0].Hosts))
	}
}

func TestWriteFailsWhenAllNodesDown(t *testing.T) {
	fs := newTestFS(t, 2, 64, 1)
	fs.SetNodeDown(0, true)
	fs.SetNodeDown(1, true)
	if err := fs.WriteFile("/doomed", []byte("x"), fs.Topology().Node(0)); err == nil {
		t.Error("write with no live datanodes accepted")
	}
	if fs.Exists("/doomed") {
		t.Error("failed write left a file")
	}
}

func TestWriterOnFailedNodePlacesRemotely(t *testing.T) {
	fs := newTestFS(t, 3, 64, 2)
	fs.SetNodeDown(0, true)
	// The writer's own node is down; its blocks land elsewhere.
	if err := fs.WriteFile("/rw", []byte("remote write"), fs.Topology().Node(0)); err != nil {
		t.Fatal(err)
	}
	info, _ := fs.Stat("/rw")
	for _, h := range info.Blocks[0].Hosts {
		if h == fs.Topology().Node(0).Addr {
			t.Error("block placed on the writer's failed node")
		}
	}
}

// TestOpenRangeRejectsOverflowingEnd: a range whose end overflows int64
// is outside the file, not a wrapped empty range read with a nil error.
func TestOpenRangeRejectsOverflowingEnd(t *testing.T) {
	fs := newTestFS(t, 2, 16, 1)
	if err := fs.WriteFile("/o", bytes.Repeat([]byte("v"), 40), fs.Topology().Node(0)); err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int64{{8, math.MaxInt64}, {math.MaxInt64, 1}, {41, 0}} {
		if rd, err := fs.OpenRange("/o", r[0], r[1], nil); err == nil {
			got, rerr := io.ReadAll(rd)
			t.Errorf("OpenRange(%d, %d) accepted; read %d bytes, err %v", r[0], r[1], len(got), rerr)
		}
	}
	// The range ending exactly at EOF, and the empty one there, stay valid.
	for _, r := range [][2]int64{{8, 32}, {40, 0}} {
		if _, err := fs.OpenRange("/o", r[0], r[1], nil); err != nil {
			t.Errorf("OpenRange(%d, %d): %v", r[0], r[1], err)
		}
	}
}

// TestSizeMatchesStat: Size answers Stat's length, and fails as Stat does.
func TestSizeMatchesStat(t *testing.T) {
	fs := newTestFS(t, 2, 16, 1)
	if err := fs.WriteFile("/s", bytes.Repeat([]byte("s"), 50), fs.Topology().Node(0)); err != nil {
		t.Fatal(err)
	}
	size, err := fs.Size("/s")
	if info, serr := fs.Stat("/s"); err != nil || serr != nil || size != info.Size || size != 50 {
		t.Errorf("Size = %d, %v; Stat = %d, %v", size, err, info.Size, serr)
	}
	for _, p := range []string{"/missing", "relative", "/a//b"} {
		_, err := fs.Size(p)
		_, serr := fs.Stat(p)
		if err == nil || serr == nil || err.Error() != serr.Error() {
			t.Errorf("Size(%q) error %v, Stat error %v", p, err, serr)
		}
	}
}

// TestReaderDrainAllocsIndependentOfBlocks: draining a file through one
// Reader into a reused buffer allocates the same whether the file has one
// block or a thousand — opening needs the size, not the block map, and a
// block fetch builds no replica list.
func TestReaderDrainAllocsIndependentOfBlocks(t *testing.T) {
	const bs = 64
	fs := newTestFS(t, 4, bs, 3)
	node := fs.Topology().Node(1)
	if err := fs.WriteFile("/one", bytes.Repeat([]byte("1"), bs), node); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/many", bytes.Repeat([]byte("m"), 1000*bs), node); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, bs)
	drain := func(path string, want int) float64 {
		return testing.AllocsPerRun(20, func() {
			r, err := fs.Open(path, node)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for {
				m, err := r.Read(buf)
				n += m
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if n != want {
				t.Fatalf("drained %d bytes of %s, want %d", n, path, want)
			}
		})
	}
	one, many := drain("/one", bs), drain("/many", 1000*bs)
	if many > one {
		t.Errorf("draining 1000 blocks allocates %.0f times, 1 block %.0f: want no more", many, one)
	}
}

// writeFailsFrom fails every replica store of block ids >= from.
type writeFailsFrom struct{ from int64 }

func (h writeFailsFrom) BlockRead(int, int64) error { return nil }
func (h writeFailsFrom) BlockWrite(_ int, blockID int64) error {
	if blockID >= h.from {
		return fmt.Errorf("injected store failure of block %d", blockID)
	}
	return nil
}

// TestCloseSealFailureReleasesPath: when the trailing block's seal fails
// on every replica, Close returns that error and leaves nothing behind —
// the path is free for Create and unknown to Delete, and the blocks
// sealed before are released.
func TestCloseSealFailureReleasesPath(t *testing.T) {
	fs := newTestFS(t, 3, 16, 2)
	topo := fs.Topology()
	before := fs.TotalUsed()
	fs.SetFaultHook(writeFailsFrom{from: 2})
	w, err := fs.Create("/f/torn", topo.Node(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(bytes.Repeat([]byte("t"), 40)); err != nil { // seals blocks 0 and 1
		t.Fatal(err)
	}
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "every pipeline replica failed") {
		t.Fatalf("Close = %v, want the trailing block's seal error", err)
	}
	fs.SetFaultHook(nil)
	w.Abort() // a no-op after the failed Close, as after any Close
	if used := fs.TotalUsed(); used != before {
		t.Errorf("TotalUsed = %d after the failed Close, want %d", used, before)
	}
	if fs.Exists("/f/torn") {
		t.Error("failed Close committed the file")
	}
	if err := fs.Delete("/f/torn"); err == nil || strings.Contains(err.Error(), "being written") {
		t.Errorf("Delete after failed Close = %v, want no such file", err)
	}
	if err := fs.WriteFile("/f/torn", bytes.Repeat([]byte("t"), 40), topo.Node(0)); err != nil {
		t.Errorf("path not reusable after failed Close: %v", err)
	}
}

// TestWriteChunkingKeepsBlocks: however a file's bytes are split across
// Write calls, its bytes, its Stat (block offsets, lengths and hosts) and
// the disk and network bytes charged for its replicas are those of one
// Write of the whole file, at sizes on each side of the block boundaries.
// No stored block keeps more than an eighth of its length (plus malloc's
// rounding) as unused capacity, and a file of less than a block written
// in one Write is stored at exactly its length.
func TestWriteChunkingKeepsBlocks(t *testing.T) {
	const bs = 64
	rng := rand.New(rand.NewSource(1))
	write := func(data []byte, chunks []int) (FileInfo, cluster.Stats, [][]byte) {
		t.Helper()
		topo := cluster.NewTopology(4)
		cost := &cluster.CostModel{DiskReadBps: 1e6, DiskWriteBps: 1e6, NetBps: 1e6}
		fs := New(topo, Config{BlockSize: bs, Replication: 2, Cost: cost})
		w, err := fs.Create("/f", topo.Node(1))
		if err != nil {
			t.Fatal(err)
		}
		rest := data
		for _, n := range chunks {
			if m, err := w.Write(rest[:n]); err != nil || m != n {
				t.Fatalf("Write(%d bytes) = %d, %v", n, m, err)
			}
			rest = rest[n:]
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		charged := cost.Stats()
		info, err := fs.Stat("/f")
		if err != nil {
			t.Fatal(err)
		}
		if got, err := fs.ReadFile("/f", topo.Node(1)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("chunks %v: read back %d bytes (%v), want the %d written", chunks, len(got), err, len(data))
		}
		var stored [][]byte
		for _, blk := range fs.files["/f"].blocks {
			for _, id := range blk.replicas {
				stored = append(stored, fs.datanodes[id].blocks[blk.id])
			}
		}
		return info, charged, stored
	}
	for _, size := range []int{1, bs - 1, bs, bs + 1, 3*bs + 7} {
		data := make([]byte, size)
		rng.Read(data)
		wantInfo, wantCharged, stored := write(data, []int{size})
		if b := stored[0]; size < bs && cap(b) != len(b) {
			t.Errorf("size %d in one Write: stored with capacity %d", size, cap(b))
		}
		for trial := 0; trial < 50; trial++ {
			var chunks []int
			for left := size; left > 0; {
				n := min(left, []int{1, rng.Intn(bs + 2), bs - 1, bs, bs + 1}[rng.Intn(5)])
				chunks = append(chunks, n)
				left -= n
			}
			info, charged, stored := write(data, chunks)
			if fmt.Sprint(info) != fmt.Sprint(wantInfo) {
				t.Errorf("size %d, chunks %v: Stat %v, want %v", size, chunks, info, wantInfo)
			}
			if charged != wantCharged {
				t.Errorf("size %d, chunks %v: charged %+v, want %+v", size, chunks, charged, wantCharged)
			}
			for _, b := range stored {
				if cap(b)-len(b) > len(b)/8+16 {
					t.Errorf("size %d, chunks %v: block of %d bytes stored with capacity %d", size, chunks, len(b), cap(b))
				}
			}
		}
	}
}

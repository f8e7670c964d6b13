// Package dfs implements a distributed file system simulator in the image of
// HDFS: a namenode namespace mapping paths to block lists, datanodes storing
// replicated blocks, and block-location metadata that InputFormats use for
// locality-aware split placement.
//
// It stands in for the HDFS deployment in the paper's testbed: the naive
// SQL→ML pipeline materialises intermediate results here (paying replicated
// write and re-read costs through the cluster cost model), while the paper's
// parallel streaming transfer avoids the file system entirely.
package dfs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"sqlml/internal/cluster"
)

// DefaultBlockSize is the block size used when Config.BlockSize is zero.
// It is deliberately small (HDFS uses 128 MB) because the simulated datasets
// are scaled down by the same factor as the paper's tables.
const DefaultBlockSize = 4 << 20

// DefaultReplication mirrors the paper's HDFS replication factor of 3.
const DefaultReplication = 3

// Config controls file system behaviour.
type Config struct {
	BlockSize   int64
	Replication int
	// Cost, when non-nil, charges simulated disk and network time for every
	// block written and read.
	Cost *cluster.CostModel
}

// BlockLocation describes one block of a file for split planning.
type BlockLocation struct {
	Offset int64
	Length int64
	// Hosts are the simulated addresses of the nodes holding replicas.
	Hosts []string
}

// FileInfo is namenode metadata for one file.
type FileInfo struct {
	Path   string
	Size   int64
	Blocks []BlockLocation
}

type blockInfo struct {
	id       int64
	size     int64
	replicas []int // node IDs
}

type fileMeta struct {
	size   int64
	blocks []blockInfo
}

type dataNode struct {
	mu     sync.RWMutex
	blocks map[int64][]byte
	down   bool
}

// FaultHook scripts datanode-level faults into the file system: it is
// consulted once per candidate replica before a block read is served and
// once per pipeline replica before a block store. A non-nil return fails
// that one replica access — readers fall back to the next replica, writers
// drop the replica from the block's pipeline (HDFS pipeline recovery,
// shrunk replication). Hooks run outside the filesystem's locks.
// internal/fault.DFSFaults is the scripted implementation.
type FaultHook interface {
	BlockRead(nodeID int, blockID int64) error
	BlockWrite(nodeID int, blockID int64) error
}

// FileSystem is the simulated DFS. All methods are safe for concurrent use.
type FileSystem struct {
	topo *cluster.Topology
	cfg  Config

	mu        sync.RWMutex
	files     map[string]*fileMeta
	open      map[string]bool // paths with an in-flight writer
	nextBlock int64
	hook      FaultHook

	datanodes []*dataNode
	place     int // round-robin cursor for replica placement
}

// New creates a file system spanning all nodes of the topology.
func New(topo *cluster.Topology, cfg Config) *FileSystem {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	if cfg.Replication <= 0 {
		cfg.Replication = DefaultReplication
	}
	if cfg.Replication > topo.Len() {
		cfg.Replication = topo.Len()
	}
	fs := &FileSystem{
		topo:      topo,
		cfg:       cfg,
		files:     make(map[string]*fileMeta),
		open:      make(map[string]bool),
		datanodes: make([]*dataNode, topo.Len()),
	}
	for i := range fs.datanodes {
		fs.datanodes[i] = &dataNode{blocks: make(map[int64][]byte)}
	}
	return fs
}

// Topology returns the cluster the file system runs on.
func (fs *FileSystem) Topology() *cluster.Topology { return fs.topo }

// SetNodeDown marks a datanode as failed (or recovered). Reads of blocks
// with a replica on a failed node transparently fall back to the surviving
// replicas; writes avoid failed nodes. Block state is retained, so a
// recovered node serves its replicas again — the availability behaviour
// 3-way replication exists to provide.
func (fs *FileSystem) SetNodeDown(nodeID int, down bool) {
	dn := fs.datanodes[nodeID]
	dn.mu.Lock()
	dn.down = down
	dn.mu.Unlock()
}

// SetFaultHook installs (or with nil removes) the datanode fault hook.
func (fs *FileSystem) SetFaultHook(h FaultHook) {
	fs.mu.Lock()
	fs.hook = h
	fs.mu.Unlock()
}

func (fs *FileSystem) faultHook() FaultHook {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.hook
}

// NodeDown reports whether a datanode is currently failed.
func (fs *FileSystem) NodeDown(nodeID int) bool {
	dn := fs.datanodes[nodeID]
	dn.mu.RLock()
	defer dn.mu.RUnlock()
	return dn.down
}

func cleanPath(p string) (string, error) {
	p = strings.TrimSpace(p)
	if p == "" || !strings.HasPrefix(p, "/") {
		return "", fmt.Errorf("dfs: path must be absolute, got %q", p)
	}
	if strings.Contains(p, "//") || strings.HasSuffix(p, "/") {
		return "", fmt.Errorf("dfs: malformed path %q", p)
	}
	return p, nil
}

// lookup resolves a committed file. Its metadata is never mutated after
// commit, so callers read it without the namespace lock.
func (fs *FileSystem) lookup(path string) (string, *fileMeta, error) {
	p, err := cleanPath(path)
	if err != nil {
		return "", nil, err
	}
	fs.mu.RLock()
	meta, ok := fs.files[p]
	fs.mu.RUnlock()
	if !ok {
		return "", nil, fmt.Errorf("dfs: no such file %q", p)
	}
	return p, meta, nil
}

// Exists reports whether path names a committed file.
func (fs *FileSystem) Exists(path string) bool {
	_, _, err := fs.lookup(path)
	return err == nil
}

// Stat returns metadata for a committed file: its length and its block
// locations, one hosts slice per block.
func (fs *FileSystem) Stat(path string) (FileInfo, error) {
	p, meta, err := fs.lookup(path)
	if err != nil {
		return FileInfo{}, err
	}
	info := FileInfo{Path: p, Size: meta.size}
	var off int64
	for _, b := range meta.blocks {
		hosts := make([]string, len(b.replicas))
		for i, id := range b.replicas {
			hosts[i] = fs.topo.Node(id).Addr
		}
		info.Blocks = append(info.Blocks, BlockLocation{Offset: off, Length: b.size, Hosts: hosts})
		off += b.size
	}
	return info, nil
}

// Size returns a committed file's length without Stat's block locations,
// as HDFS's getFileStatus answers apart from getFileBlockLocations.
func (fs *FileSystem) Size(path string) (int64, error) {
	_, meta, err := fs.lookup(path)
	if err != nil {
		return 0, err
	}
	return meta.size, nil
}

// List returns the committed paths under the given directory prefix, sorted.
// A prefix of "/" lists everything.
func (fs *FileSystem) List(prefix string) []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) || p == strings.TrimSuffix(prefix, "/") {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Delete removes a file and frees its blocks. Deleting a missing file is an
// error; deleting a file being written is rejected.
func (fs *FileSystem) Delete(path string) error {
	p, err := cleanPath(path)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.open[p] {
		return fmt.Errorf("dfs: %q is being written", p)
	}
	meta, ok := fs.files[p]
	if !ok {
		return fmt.Errorf("dfs: no such file %q", p)
	}
	for _, b := range meta.blocks {
		for _, id := range b.replicas {
			dn := fs.datanodes[id]
			dn.mu.Lock()
			delete(dn.blocks, b.id)
			dn.mu.Unlock()
		}
	}
	delete(fs.files, p)
	return nil
}

// Rename moves a committed file to a new path atomically.
func (fs *FileSystem) Rename(from, to string) error {
	f, err := cleanPath(from)
	if err != nil {
		return err
	}
	t, err := cleanPath(to)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	meta, ok := fs.files[f]
	if !ok {
		return fmt.Errorf("dfs: no such file %q", f)
	}
	if _, exists := fs.files[t]; exists {
		return fmt.Errorf("dfs: destination %q exists", t)
	}
	if fs.open[f] || fs.open[t] {
		return fmt.Errorf("dfs: rename involving in-flight writer")
	}
	delete(fs.files, f)
	fs.files[t] = meta
	return nil
}

// chooseReplicas picks replica nodes for a new block: the writer's node
// first (HDFS's local-write rule), then round-robin over the other nodes.
func (fs *FileSystem) chooseReplicas(writer *cluster.Node) ([]int, error) {
	n := fs.topo.Len()
	up := func(id int) bool { return !fs.NodeDown(id) }
	reps := make([]int, 0, fs.cfg.Replication)
	if writer != nil && up(writer.ID) {
		reps = append(reps, writer.ID)
	}
	for tried := 0; len(reps) < fs.cfg.Replication && tried < n; tried++ {
		fs.place = (fs.place + 1) % n
		cand := fs.place
		if !up(cand) {
			continue
		}
		dup := false
		for _, r := range reps {
			if r == cand {
				dup = true
				break
			}
		}
		if !dup {
			reps = append(reps, cand)
		}
	}
	if len(reps) == 0 {
		return nil, fmt.Errorf("dfs: no live datanodes for block placement")
	}
	return reps, nil
}

// Writer streams data into a new file. It is not safe for concurrent use.
type Writer struct {
	fs     *FileSystem
	path   string
	node   *cluster.Node
	buf    []byte
	blocks []blockInfo
	size   int64
	closed bool
}

// Create begins writing a new file. writerNode is the node issuing the
// writes (its replica gets the block locally). The file becomes visible only
// on Close; Abort discards it.
func (fs *FileSystem) Create(path string, writerNode *cluster.Node) (*Writer, error) {
	p, err := cleanPath(path)
	if err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[p]; ok {
		return nil, fmt.Errorf("dfs: file %q exists", p)
	}
	if fs.open[p] {
		return nil, fmt.Errorf("dfs: file %q is being written", p)
	}
	fs.open[p] = true
	return &Writer{fs: fs, path: p, node: writerNode}, nil
}

// Write copies data into the block being filled, w.buf, sealing it as the
// stored block once it holds a full block. The first block's buffer grows
// by doubling, so a small file allocates about its size; once a block has
// been sealed the file is known to be large, and each later block's buffer
// is allocated whole.
func (w *Writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("dfs: write on closed writer for %q", w.path)
	}
	n, bs := len(p), int(w.fs.cfg.BlockSize)
	for len(p) > 0 {
		k := min(len(p), bs-len(w.buf))
		if len(w.buf)+k > cap(w.buf) {
			size := bs
			if len(w.blocks) == 0 {
				size = min(bs, max(2*cap(w.buf), len(w.buf)+k))
			}
			w.buf = append(make([]byte, 0, size), w.buf...)
		}
		w.buf, p = append(w.buf, p[:k]...), p[k:]
		if len(w.buf) == bs {
			if err := w.seal(w.buf); err != nil {
				return 0, err
			}
			w.buf = nil
		}
	}
	return n, nil
}

// seal stores data, which the writer hands over, as one block on its
// replicas, charging disk and network costs.
func (w *Writer) seal(data []byte) error {
	fs := w.fs
	fs.mu.Lock()
	id := fs.nextBlock
	fs.nextBlock++
	replicas, rerr := fs.chooseReplicas(w.node)
	fs.mu.Unlock()
	if rerr != nil {
		return rerr
	}

	hook := fs.faultHook()
	kept := make([]int, 0, len(replicas))
	var lastErr error
	for i, nodeID := range replicas {
		if hook != nil {
			if err := hook.BlockWrite(nodeID, id); err != nil {
				// Pipeline recovery: drop the failed replica and continue
				// with the survivors (HDFS shrinks the write pipeline the
				// same way). Only a block no replica accepted fails the
				// write.
				lastErr = err
				continue
			}
		}
		dn := fs.datanodes[nodeID]
		dn.mu.Lock()
		dn.blocks[id] = data
		dn.mu.Unlock()
		target := fs.topo.Node(nodeID)
		if i > 0 || w.node == nil || w.node.ID != nodeID {
			// Replica traverses the (simulated) write pipeline network.
			from := w.node
			if from == nil {
				from = fs.topo.Node(replicas[0])
			}
			fs.cfg.Cost.ChargeNet(from, target, len(data))
		}
		fs.cfg.Cost.ChargeDiskWrite(target, len(data))
		kept = append(kept, nodeID)
	}
	if len(kept) == 0 {
		return fmt.Errorf("dfs: block %d: every pipeline replica failed: %w", id, lastErr)
	}
	w.blocks = append(w.blocks, blockInfo{id: id, size: int64(len(data)), replicas: kept})
	w.size += int64(len(data))
	return nil
}

// Close seals the trailing partial block and commits the file. When that
// seal fails, Close aborts the write — the path is free again and the
// blocks already sealed are released — and returns the seal error.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	if len(w.buf) > 0 {
		if cap(w.buf)-len(w.buf) > len(w.buf)/8 {
			w.buf = append([]byte(nil), w.buf...) // no large unused capacity stored
		}
		if err := w.seal(w.buf); err != nil {
			w.Abort()
			return err
		}
		w.buf = nil
	}
	w.closed = true
	fs := w.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	delete(fs.open, w.path)
	if _, ok := fs.files[w.path]; ok {
		return fmt.Errorf("dfs: file %q appeared during write", w.path)
	}
	fs.files[w.path] = &fileMeta{size: w.size, blocks: w.blocks}
	return nil
}

// Abort discards the partially written file and its sealed blocks.
func (w *Writer) Abort() {
	if w.closed {
		return
	}
	w.closed = true
	fs := w.fs
	fs.mu.Lock()
	delete(fs.open, w.path)
	fs.mu.Unlock()
	for _, b := range w.blocks {
		for _, id := range b.replicas {
			dn := fs.datanodes[id]
			dn.mu.Lock()
			delete(dn.blocks, b.id)
			dn.mu.Unlock()
		}
	}
	w.blocks = nil
}

// Reader reads a byte range of a committed file.
type Reader struct {
	fs     *FileSystem
	node   *cluster.Node
	blocks []blockInfo
	// remaining byte range relative to the start of the file
	pos int64
	end int64
	// current block cache
	cur      []byte
	curStart int64
}

// Open returns a reader over the whole file. readerNode is the node doing
// the reading: local replicas are preferred and remote reads are charged
// network time.
func (fs *FileSystem) Open(path string, readerNode *cluster.Node) (*Reader, error) {
	size, err := fs.Size(path)
	if err != nil {
		return nil, err
	}
	return fs.OpenRange(path, 0, size, readerNode)
}

// OpenRange returns a reader over [offset, offset+length) of the file.
func (fs *FileSystem) OpenRange(path string, offset, length int64, readerNode *cluster.Node) (*Reader, error) {
	_, meta, err := fs.lookup(path)
	if err != nil {
		return nil, err
	}
	// length > size-offset, not offset+length > size: the sum can wrap.
	if offset < 0 || length < 0 || offset > meta.size || length > meta.size-offset {
		return nil, fmt.Errorf("dfs: range of %d bytes at %d outside file of %d bytes", length, offset, meta.size)
	}
	return &Reader{fs: fs, node: readerNode, blocks: meta.blocks, pos: offset, end: offset + length}, nil
}

// fetchBlock loads the block covering file offset pos, charging costs.
func (r *Reader) fetchBlock() error {
	var start int64
	for _, b := range r.blocks {
		if r.pos < start+b.size {
			return r.fetchReplica(b, start)
		}
		start += b.size
	}
	return io.EOF
}

// fetchReplica serves block b from the first healthy candidate replica:
// the reader's local one when it holds a copy, then the others in
// placement order. A candidate is skipped — and the next one tried — when
// its node is down, its copy is missing, or the fault hook fails the
// access; this per-candidate fallback is the availability behaviour
// replication exists to provide, and it makes a node failing between two
// block fetches of one reader invisible to the consumer.
func (r *Reader) fetchReplica(b blockInfo, start int64) error {
	hook := r.fs.faultHook()
	var lastErr error
	// Two passes over the placement list, so no candidate list is built:
	// pass 0 visits only the reader's own replica, pass 1 the rest.
	for pass := 0; pass < 2; pass++ {
		for _, id := range b.replicas {
			if local := r.node != nil && id == r.node.ID; local != (pass == 0) {
				continue
			}
			if r.fs.NodeDown(id) {
				lastErr = fmt.Errorf("node %d is down", id)
				continue
			}
			if hook != nil {
				if err := hook.BlockRead(id, b.id); err != nil {
					lastErr = err
					continue
				}
			}
			dn := r.fs.datanodes[id]
			dn.mu.RLock()
			data, ok := dn.blocks[b.id]
			dn.mu.RUnlock()
			if !ok {
				lastErr = fmt.Errorf("copy missing on node %d", id)
				continue
			}
			src := r.fs.topo.Node(id)
			r.fs.cfg.Cost.ChargeDiskRead(src, len(data))
			if r.node != nil && id != r.node.ID {
				r.fs.cfg.Cost.ChargeNet(src, r.node, len(data))
			}
			r.cur = data
			r.curStart = start
			return nil
		}
	}
	return fmt.Errorf("dfs: block %d: no readable replica among %d: %w", b.id, len(b.replicas), lastErr)
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if r.pos >= r.end {
		return 0, io.EOF
	}
	if r.cur == nil || r.pos < r.curStart || r.pos >= r.curStart+int64(len(r.cur)) {
		if err := r.fetchBlock(); err != nil {
			return 0, err
		}
	}
	off := r.pos - r.curStart
	avail := int64(len(r.cur)) - off
	if rem := r.end - r.pos; avail > rem {
		avail = rem
	}
	n := copy(p, r.cur[off:off+avail])
	r.pos += int64(n)
	return n, nil
}

// Close releases the reader. It exists to satisfy io.ReadCloser; the
// simulated DFS holds no per-reader resources.
func (r *Reader) Close() error { return nil }

// WriteFile writes data as a new file in one call.
func (fs *FileSystem) WriteFile(path string, data []byte, node *cluster.Node) error {
	w, err := fs.Create(path, node)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Abort()
		return err
	}
	return w.Close()
}

// ReadFile reads the whole file in one call.
func (fs *FileSystem) ReadFile(path string, node *cluster.Node) (_ []byte, err error) {
	r, err := fs.Open(path, node)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := r.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return io.ReadAll(r)
}

package sqlengine

import (
	"bytes"

	"sqlml/internal/row"
)

// HashTable is the shared hash structure behind every hash path of the
// engine: join build/probe, GROUP BY (and so DISTINCT) partials and their
// merge, and transform's distinct-value discovery.
//
// It maps variable-length byte keys (produced by the row key codec) to
// dense uint32 indices in insertion order: the first distinct key gets 0,
// the next 1, and so on. Consumers keep their per-key payload (build-side
// row buckets, aggregation groups) in an ordinary slice indexed by that,
// which keeps the table itself payload-agnostic and the payloads free of
// per-entry map overhead.
//
// Key bytes are copied into chunked arenas — append-only byte slabs that
// grow by whole chunks, so inserting never moves previously stored keys
// and the per-key cost is a bump-pointer copy, not an allocation. The
// index is open-addressed with quadratic (triangular-number) probing over
// a power-of-two slot array; each slot carries the full 64-bit hash, so a
// probe compares key bytes only on a hash match.
//
// A HashTable is not safe for concurrent mutation; the engine uses one
// per partition (and one for the head-node merge), matching its
// one-goroutine-per-partition execution model.
type HashTable struct {
	slots []htSlot
	mask  uint64
	n     int

	chunks [][]byte // arenas; the last one is the active chunk
}

// htSlot is one open-addressing slot. hash == 0 marks an empty slot;
// stored hashes are forced non-zero.
type htSlot struct {
	hash  uint64
	chunk uint32 // arena chunk holding the key
	off   uint32 // offset of the key within its chunk
	klen  uint32
	idx   uint32 // dense insertion index
}

// htChunkSize is the arena chunk granularity. Keys longer than a chunk
// get a dedicated chunk of their exact size.
const htChunkSize = 1 << 16

// NewHashTable returns an empty table of 16 slots; it grows by doubling.
func NewHashTable() *HashTable { return newHashTableFor(0) }

// newHashTableFor returns an empty table with room for n keys before its
// first growth, and at least 16 slots.
func newHashTableFor(n int) *HashTable {
	size := 16
	for size*3 < n*4 {
		size *= 2
	}
	return &HashTable{slots: make([]htSlot, size), mask: uint64(size - 1)}
}

// Len returns the number of distinct keys stored.
func (t *HashTable) Len() int { return t.n }

// key returns the stored key bytes of a filled slot.
func (t *HashTable) key(s *htSlot) []byte {
	return t.chunks[s.chunk][s.off : s.off+uint32(s.klen)]
}

// Insert returns the dense index of key, adding it if absent. added
// reports whether the key was new. The key bytes are copied into the
// table's arena, so the caller may (and should) reuse its buffer.
func (t *HashTable) Insert(key []byte) (idx uint32, added bool) {
	return t.InsertHashed(key, hashNonZero(key))
}

// InsertHashed is Insert for callers that already hold key's hashNonZero
// hash — the hash-join build computes hashes once in its per-chunk key
// scan and reuses them to insert.
func (t *HashTable) InsertHashed(key []byte, h uint64) (idx uint32, added bool) {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	i := h & t.mask
	for step := uint64(1); ; step++ {
		s := &t.slots[i]
		if s.hash == 0 {
			chunk, off := t.arenaAppend(key)
			*s = htSlot{hash: h, chunk: chunk, off: off, klen: uint32(len(key)), idx: uint32(t.n)}
			t.n++
			return s.idx, true
		}
		if s.hash == h && bytes.Equal(t.key(s), key) {
			return s.idx, false
		}
		i = (i + step) & t.mask
	}
}

// LookupHashed returns the dense index of key, whose hashNonZero is h, if
// present: the probe-side twin of InsertHashed.
func (t *HashTable) LookupHashed(key []byte, h uint64) (uint32, bool) {
	i := h & t.mask
	for step := uint64(1); ; step++ {
		s := &t.slots[i]
		if s.hash == 0 {
			return 0, false
		}
		if s.hash == h && bytes.Equal(t.key(s), key) {
			return s.idx, true
		}
		i = (i + step) & t.mask
	}
}

// hashNonZero hashes key, reserving 0 as the empty-slot marker.
func hashNonZero(key []byte) uint64 {
	h := row.Hash64(key)
	if h == 0 {
		return 1
	}
	return h
}

// arenaAppend copies key into the active chunk (opening a new one when it
// does not fit) and returns its (chunk, offset) address.
func (t *HashTable) arenaAppend(key []byte) (chunk, off uint32) {
	last := len(t.chunks) - 1
	if last < 0 || len(t.chunks[last])+len(key) > cap(t.chunks[last]) {
		size := htChunkSize
		if len(key) > size {
			size = len(key)
		}
		t.chunks = append(t.chunks, make([]byte, 0, size))
		last = len(t.chunks) - 1
	}
	c := t.chunks[last]
	off = uint32(len(c))
	t.chunks[last] = append(c, key...)
	return uint32(last), off
}

// grow doubles the slot array and reinserts every filled slot by its
// stored hash. Keys stay where they are in the arenas; no compares are
// needed because all stored keys are distinct.
func (t *HashTable) grow() {
	old := t.slots
	t.slots = make([]htSlot, len(old)*2)
	t.mask = uint64(len(t.slots) - 1)
	for oi := range old {
		s := old[oi]
		if s.hash == 0 {
			continue
		}
		i := s.hash & t.mask
		for step := uint64(1); ; step++ {
			if t.slots[i].hash == 0 {
				t.slots[i] = s
				break
			}
			i = (i + step) & t.mask
		}
	}
}

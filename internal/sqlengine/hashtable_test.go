package sqlengine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestHashTableMatchesMapOracle: a random sequence of Insert/Lookup calls
// behaves exactly like a map[string]uint32 assigning dense indices in
// insertion order — including empty keys, duplicate keys, and enough
// distinct keys to force several growths.
func TestHashTableMatchesMapOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ht := NewHashTable()
		oracle := make(map[string]uint32)
		for op := 0; op < 2000; op++ {
			// Keys from a zipf-ish small space so duplicates are common.
			key := []byte(fmt.Sprintf("key-%d", rng.Intn(600)))
			if rng.Intn(20) == 0 {
				key = nil // empty key is a valid composite (global aggregate)
			}
			if rng.Intn(3) == 0 {
				idx, ok := ht.Lookup(key)
				widx, wok := oracle[string(key)]
				if ok != wok || (ok && idx != widx) {
					return false
				}
				continue
			}
			idx, added := ht.Insert(key)
			widx, seen := oracle[string(key)]
			if added == seen {
				return false
			}
			if seen {
				if idx != widx {
					return false
				}
			} else {
				if idx != uint32(len(oracle)) {
					return false
				}
				oracle[string(key)] = idx
			}
		}
		return ht.Len() == len(oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestHashTableLargeKeys: keys larger than the arena chunk get dedicated
// chunks and survive growth.
func TestHashTableLargeKeys(t *testing.T) {
	ht := NewHashTable()
	big := bytes.Repeat([]byte("x"), htChunkSize+100)
	idx, added := ht.Insert(big)
	if !added || idx != 0 {
		t.Fatalf("big key insert: idx=%d added=%v", idx, added)
	}
	// Force growth with many small keys.
	for i := 0; i < 500; i++ {
		ht.Insert([]byte(fmt.Sprintf("small-%d", i)))
	}
	got, ok := ht.Lookup(big)
	if !ok || got != 0 {
		t.Fatalf("big key lost after growth: idx=%d ok=%v", got, ok)
	}
	if !bytes.Equal(ht.Key(0), big) {
		t.Fatal("stored big key bytes corrupted")
	}
}

// TestHashTableInsertNoPerKeyAlloc: hitting an existing key allocates
// nothing, and the caller's buffer may be reused across inserts (the
// table copies).
func TestHashTableInsertNoPerKeyAlloc(t *testing.T) {
	ht := NewHashTable()
	buf := []byte("stable-key")
	ht.Insert(buf)
	allocs := testing.AllocsPerRun(200, func() {
		if _, added := ht.Insert(buf); added {
			t.Fatal("key unexpectedly re-added")
		}
	})
	if allocs != 0 {
		t.Errorf("duplicate Insert allocated %.1f times per call", allocs)
	}
	// Mutating the caller's buffer after insert must not corrupt the table.
	copy(buf, "XXXXXXXXXX")
	if _, ok := ht.Lookup([]byte("stable-key")); !ok {
		t.Error("table aliased the caller's buffer instead of copying")
	}
}

// Lookup returns the dense index of key, if present.
func (t *HashTable) Lookup(key []byte) (uint32, bool) {
	return t.LookupHashed(key, hashNonZero(key))
}

// Key returns the stored bytes of dense index idx, scanning every slot.
func (t *HashTable) Key(idx uint32) []byte {
	for i := range t.slots {
		s := &t.slots[i]
		if s.hash != 0 && s.idx == idx {
			return t.key(s)
		}
	}
	return nil
}

// TestNewHashTableForNeverGrows: n distinct inserts into newHashTableFor(n)
// keep the slot array it started with, which is the smallest power of two
// of at least 16 slots that holds them.
func TestNewHashTableForNeverGrows(t *testing.T) {
	for _, n := range []int{0, 1, 12, 13, 24, 25, 100, 768, 769, 5000} {
		ht := newHashTableFor(n)
		slots := len(ht.slots)
		if slots < 16 || (slots > 16 && slots/2*3 >= n*4) {
			t.Errorf("newHashTableFor(%d): %d slots, want the smallest power of two ≥ 16 with room for %d keys", n, slots, n)
		}
		first := &ht.slots[0]
		for i := range n {
			if _, added := ht.Insert(fmt.Appendf(nil, "key-%d", i)); !added {
				t.Fatalf("newHashTableFor(%d): key %d not added", n, i)
			}
		}
		if len(ht.slots) != slots || &ht.slots[0] != first {
			t.Errorf("newHashTableFor(%d): slot array grew from %d to %d slots over %d inserts", n, slots, len(ht.slots), n)
		}
	}
}

package row

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// gatherSource builds a vector of type t holding vals, with one NULL
// VARCHAR slot written with a payload (as a null-propagating kernel
// leaves it) when t is VARCHAR, and an empty string beside it.
func gatherSource(rng *rand.Rand, t Type, n int) *Vector {
	v := &Vector{}
	v.Reset(t)
	for i := 0; i < n; i++ {
		v.AppendValue(randomColValue(rng, t))
	}
	if t == TypeString {
		v.AppendString("")
		v.AppendString("payload under a NULL")
		v.SetNull(v.Len() - 1)
	}
	return v
}

// sameVector fails unless got and want hold the same slots, backing
// values, string slab, offsets, null bitmap and null hint.
func sameVector(t *testing.T, what string, got, want *Vector) {
	t.Helper()
	switch {
	case got.typ != want.typ || got.n != want.n:
		t.Fatalf("%s: %s of %d slots, want %s of %d", what, got.typ, got.n, want.typ, want.n)
	case !slices.Equal(got.Ints, want.Ints), !slices.Equal(got.Floats, want.Floats), !slices.Equal(got.Bools, want.Bools):
		t.Fatalf("%s: values %v%v%v, want %v%v%v", what, got.Ints, got.Floats, got.Bools, want.Ints, want.Floats, want.Bools)
	case string(got.bytes) != string(want.bytes) || !slices.Equal(got.offs, want.offs):
		t.Fatalf("%s: strings %q %v, want %q %v", what, got.bytes, got.offs, want.bytes, want.offs)
	case !slices.Equal(got.nulls, want.nulls) || got.hasNulls != want.hasNulls:
		t.Fatalf("%s: nulls %b (hint %v), want %b (hint %v)", what, got.nulls, got.hasNulls, want.nulls, want.hasNulls)
	}
}

// gatherPositions are the position lists every gather test covers: none,
// all in order, repeated, reversed, and a random multiset.
func gatherPositions(rng *rand.Rand, n int) map[string][]int32 {
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	random := make([]int32, 3*n)
	for i := range random {
		random[i] = int32(rng.Intn(n))
	}
	rev := slices.Clone(all)
	slices.Reverse(rev)
	return map[string][]int32{
		"empty":    {},
		"all":      all,
		"repeated": {0, 0, int32(n - 1), int32(n - 1), 0},
		"reversed": rev,
		"random":   random,
	}
}

// TestAppendGatherMatchesAppendFrom: AppendGather and AppendGatherRefs
// build exactly what an AppendFrom loop over the same slots builds, for
// every type, with NULLs (a VARCHAR NULL over a payload included), empty
// strings, empty and repeated positions, a destination that already holds
// slots, and a source whose null hint outlived the truncate that dropped
// its last NULL.
func TestAppendGatherMatchesAppendFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, typ := range []Type{TypeInt, TypeFloat, TypeBool, TypeString} {
		stale := gatherSource(rng, typ, 40)
		stale.AppendNull()
		stale.truncate(stale.Len() - 1)
		dense := &Vector{}
		dense.Reset(typ)
		for dense.Len() < 40 {
			if v := randomColValue(rng, typ); !v.Null {
				dense.AppendValue(v)
			}
		}
		sources := map[string]*Vector{
			"nulls":      gatherSource(rng, typ, 40),
			"stale hint": stale,
			"no nulls":   dense,
		}
		for name, src := range sources {
			if name == "stale hint" && !src.HasNulls() {
				t.Fatalf("%s: truncate cleared the null hint; the case needs it set", typ)
			}
			for pname, pos := range gatherPositions(rng, src.Len()) {
				for _, prefix := range []int{0, 3} {
					what := fmt.Sprintf("%s/%s/%s/prefix %d", typ, name, pname, prefix)
					want, got, gotRefs := &Vector{}, &Vector{}, &Vector{}
					for _, v := range []*Vector{want, got, gotRefs} {
						v.Reset(typ)
						for p := 0; p < prefix; p++ {
							v.AppendFrom(src, p)
						}
					}
					for _, p := range pos {
						want.AppendFrom(src, int(p))
					}
					got.AppendGather(src, pos)
					sameVector(t, what, got, want)

					// The same slots, spread over three chunks: src at
					// chunk 1, between two chunks of other values.
					chunks := []*ColBatch{NewColBatch([]Type{typ}), {cols: []Vector{*src}, n: src.Len()}, NewColBatch([]Type{typ})}
					refs := make([]ChunkRef, len(pos))
					for i, p := range pos {
						refs[i] = ChunkRef{Chunk: 1, Pos: p}
					}
					gotRefs.AppendGatherRefs(chunks, 0, refs)
					sameVector(t, what+"/refs", gotRefs, want)
				}
			}
		}
	}
}

// TestAppendGatherRefsAcrossChunks: refs that alternate between chunks of
// several columns read the named column of the chunk each ref names.
func TestAppendGatherRefsAcrossChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	types := []Type{TypeInt, TypeFloat, TypeBool, TypeString}
	chunks := make([]*ColBatch, 3)
	for i := range chunks {
		chunks[i] = colBatchOf(types, randomColRows(rng, types, 20+i))
	}
	var refs []ChunkRef
	for i := 0; i < 200; i++ {
		c := rng.Intn(len(chunks))
		refs = append(refs, ChunkRef{Chunk: int32(c), Pos: int32(rng.Intn(chunks[c].FullLen()))})
	}
	for col, typ := range types {
		want, got := &Vector{}, &Vector{}
		want.Reset(typ)
		got.Reset(typ)
		for _, r := range refs {
			want.AppendFrom(chunks[r.Chunk].Col(col), int(r.Pos))
		}
		got.AppendGatherRefs(chunks, col, refs)
		sameVector(t, typ.String(), got, want)
	}
}

// BenchmarkAppendGather gathers a probe-sized batch of every type, from a
// source with no NULLs and from one with a NULL in five, by the typed
// kernel and by the AppendFrom loop it replaces.
func BenchmarkAppendGather(b *testing.B) {
	rng := rand.New(rand.NewSource(48))
	pos := make([]int32, DefaultBatchSize)
	for i := range pos {
		pos[i] = int32(rng.Intn(DefaultBatchSize))
	}
	for _, typ := range []Type{TypeInt, TypeFloat, TypeBool, TypeString} {
		for _, nulls := range []bool{false, true} {
			src := &Vector{}
			src.Reset(typ)
			for src.Len() < DefaultBatchSize {
				if v := randomColValue(rng, typ); nulls || !v.Null {
					src.AppendValue(v)
				}
			}
			name := fmt.Sprintf("%s/nulls=%v", typ, nulls)
			dst := &Vector{}
			b.Run(name+"/gather", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					dst.Reset(typ)
					dst.AppendGather(src, pos)
				}
			})
			b.Run(name+"/appendfrom", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					dst.Reset(typ)
					for _, p := range pos {
						dst.AppendFrom(src, int(p))
					}
				}
			})
		}
	}
}

// TestLivePos: the live positions are the selection when there is one and
// 0..FullLen()-1 otherwise, also past DefaultBatchSize rows.
func TestLivePos(t *testing.T) {
	for _, n := range []int{0, 5, DefaultBatchSize, DefaultBatchSize + 3} {
		b := NewColBatch([]Type{TypeInt})
		for i := 0; i < n; i++ {
			b.AppendRow(Row{Int(int64(i))})
		}
		pos := b.LivePos()
		if len(pos) != n {
			t.Fatalf("%d rows: %d positions", n, len(pos))
		}
		for i, p := range pos {
			if int(p) != i {
				t.Fatalf("%d rows: position %d is %d", n, i, p)
			}
		}
		if n > 2 {
			sel := []int32{0, 2}
			b.SetSel(sel)
			if got := b.LivePos(); !slices.Equal(got, sel) {
				t.Fatalf("%d rows: positions %v under selection %v", n, got, sel)
			}
		}
	}
}

package stream

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sqlml/internal/row"
)

// batchList serves prepared batches, in order.
type batchList struct{ batches []*row.ColBatch }

func (l *batchList) NextCol() (*row.ColBatch, bool, error) {
	if len(l.batches) == 0 {
		return nil, false, nil
	}
	b := l.batches[0]
	l.batches = l.batches[1:]
	return b, true, nil
}

func (l *batchList) Close() {}

// routingBatches builds batches of uneven lengths — so the row counter
// carries from batch to batch — over every column type, with NULLs in
// every column, selection vectors on some batches, and VARCHAR values long
// enough that the byte budget cuts blocks in the middle of a batch.
func routingBatches(types []row.Type) []*row.ColBatch {
	rng := rand.New(rand.NewSource(53))
	var out []*row.ColBatch
	for bi, n := range []int{1, 700, 1024, 13, 333, 1024, 2} {
		b := row.NewColBatch(types)
		for i := 0; i < n; i++ {
			r := row.Row{
				row.Int(rng.Int63n(1 << 40)),
				row.Float(rng.NormFloat64()),
				row.String_(strings.Repeat("x", rng.Intn(400))),
				row.Bool(rng.Intn(2) == 0),
			}
			for c := range r {
				if rng.Intn(9) == 0 {
					r[c] = row.NullOf(types[c])
				}
			}
			b.AppendRow(r)
		}
		if bi%2 == 1 {
			var sel []int32
			for p := 0; p < n; p++ {
				if rng.Intn(3) != 0 {
					sel = append(sel, int32(p))
				}
			}
			b.SetSel(sel)
		}
		out = append(out, b)
	}
	return out
}

// binaryRowSize is what r costs in the binary row encoding that RawBytes
// prices: a uint32 length word, then per value a tag byte and its payload
// (8 bytes for BIGINT and DOUBLE, uint32 length + bytes for VARCHAR, 1 for
// BOOLEAN, none for NULL).
func binaryRowSize(r row.Row) int {
	n := 4
	for _, v := range r {
		n++
		switch {
		case v.Null:
		case v.Kind == row.TypeString:
			n += 4 + len(v.AsString())
		case v.Kind == row.TypeBool:
			n++
		default:
			n += 8
		}
	}
	return n
}

// perRowFrames is the routing reference: row i of the input goes to slot
// i mod k, one row at a time through a one-row batch copied cell by cell,
// priced by its binary row encoding, and a slot's block is sealed after
// the row that brings it to blockRows rows or row.BlockTargetBytes of raw
// bytes, and at the end. It returns each slot's frames and their raw
// sizes.
func perRowFrames(batches []*row.ColBatch, types []row.Type, k, blockRows int) ([][][]byte, [][]int64) {
	const rawBlockHeader = 10 // length word, version, flags, row count
	encs := make([]row.BlockEncoder, k)
	staged := make([]int, k)
	rawOf := make([]int, k)
	frames := make([][][]byte, k)
	raws := make([][]int64, k)
	seal := func(j int) {
		if staged[j] == 0 {
			return
		}
		f := encs[j].Finish()
		frames[j] = append(frames[j], bytes.Clone(f))
		raws[j] = append(raws[j], int64(rawOf[j]))
		row.RecycleBlockBuffer(f)
		staged[j], rawOf[j] = 0, 0
	}
	for j := range encs {
		encs[j].EnableColumnar(types, true)
	}
	i := 0
	for _, b := range batches {
		for si := 0; si < b.Len(); si++ {
			p := b.SelPos(si)
			one := row.NewColBatch(types)
			for c := range types {
				one.Col(c).AppendFrom(b.Col(c), p)
			}
			one.SetFullLen(1)
			j := i % k
			i++
			if staged[j] == 0 {
				rawOf[j] = rawBlockHeader
			}
			encs[j].AppendBatch(one)
			staged[j]++
			rawOf[j] += binaryRowSize(one.RowAt(0, nil))
			if staged[j] >= blockRows || rawOf[j] >= row.BlockTargetBytes {
				seal(j)
			}
		}
	}
	for j := range encs {
		seal(j)
	}
	return frames, raws
}

// TestGatherRoutingMatchesPerRowStaging is the routing oracle: for every
// slot count and block size, the sender's gather router logs frames
// byte-identical to the per-row reference's, with the same row counts
// and raw sizes, and the SenderStats it credits carry the reference's
// RawBytes.
func TestGatherRoutingMatchesPerRowStaging(t *testing.T) {
	schema := row.MustSchema(
		row.Column{Name: "id", Type: row.TypeInt},
		row.Column{Name: "x", Type: row.TypeFloat},
		row.Column{Name: "s", Type: row.TypeString},
		row.Column{Name: "b", Type: row.TypeBool},
	)
	types := row.SchemaTypes(schema)
	batches := routingBatches(types)
	cutMidBatch := false
	for _, k := range []int{1, 2, 3, 5} {
		for _, blockRows := range []int{1, 7, 1024} {
			t.Run(fmt.Sprintf("k=%d/rows=%d", k, blockRows), func(t *testing.T) {
				wantFrames, wantRaw := perRowFrames(batches, types, k, blockRows)
				s := &sender{
					req:   SendRequest{Schema: schema},
					cfg:   SenderConfig{BlockRows: blockRows},
					input: &batchList{batches: batches},
				}
				for j := 0; j < k; j++ {
					s.slots = append(s.slots, &slot{split: j, log: frameLog{budget: 1 << 40}})
				}
				if err := s.consumeInput(); err != nil {
					t.Fatal(err)
				}
				var stats SenderStats
				var refRaw int64
				for j, sl := range s.slots {
					if got, want := len(sl.log.entries), len(wantFrames[j]); got != want {
						t.Fatalf("slot %d: %d frames, reference %d", j, got, want)
					}
					for f, e := range sl.log.entries {
						if !bytes.Equal(e.frame, wantFrames[j][f]) {
							t.Fatalf("slot %d frame %d differs from the per-row reference (%d vs %d bytes)", j, f, len(e.frame), len(wantFrames[j][f]))
						}
						if e.raw != wantRaw[j][f] {
							t.Fatalf("slot %d frame %d: raw %d, reference %d", j, f, e.raw, wantRaw[j][f])
						}
						if e.raw >= row.BlockTargetBytes && e.rows < int64(blockRows) {
							cutMidBatch = true
						}
						refRaw += wantRaw[j][f]
					}
					sl.log.credit(&stats)
					if err := sl.log.release(); err != nil {
						t.Fatal(err)
					}
				}
				if stats.RawBytes != refRaw {
					t.Fatalf("SenderStats.RawBytes = %d, reference %d", stats.RawBytes, refRaw)
				}
			})
		}
	}
	if !cutMidBatch {
		t.Fatal("no block was cut by the byte budget; the VARCHAR values are too short to test it")
	}
}

// BenchmarkRouteBatches routes 16 batches of 1 024 rows shaped like the
// paper pipeline's transfer — three clustered BIGINT columns, a DOUBLE and
// a BIGINT label — to k = 2 slots, encode and log append included, and
// reports the time per batch.
func BenchmarkRouteBatches(b *testing.B) {
	schema := row.MustSchema(
		row.Column{Name: "userid", Type: row.TypeInt},
		row.Column{Name: "age", Type: row.TypeInt},
		row.Column{Name: "gender", Type: row.TypeInt},
		row.Column{Name: "amount", Type: row.TypeFloat},
		row.Column{Name: "abandoned", Type: row.TypeInt},
	)
	types := row.SchemaTypes(schema)
	rng := rand.New(rand.NewSource(53))
	batch := row.NewColBatch(types)
	for i := 0; i < row.DefaultBatchSize; i++ {
		batch.AppendRow(row.Row{
			row.Int(int64(100000 + i)), row.Int(18 + rng.Int63n(60)), row.Int(1 + rng.Int63n(2)),
			row.Float(rng.Float64() * 500), row.Int(1 + rng.Int63n(2)),
		})
	}
	const batches = 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := &batchList{}
		for range batches {
			in.batches = append(in.batches, batch)
		}
		s := &sender{req: SendRequest{Schema: schema}, cfg: DefaultSenderConfig(), input: in}
		for j := 0; j < 2; j++ {
			s.slots = append(s.slots, &slot{split: j, log: frameLog{budget: 1 << 30}})
		}
		if err := s.consumeInput(); err != nil {
			b.Fatal(err)
		}
		for _, sl := range s.slots {
			if err := sl.log.release(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batches), "ns/batch")
}

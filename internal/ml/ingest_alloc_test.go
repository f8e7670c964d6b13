package ml

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"sqlml/internal/cluster"
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/row"
)

// genFormat is an InputFormat over edgeSchema whose splits are computed,
// not stored: row i of every split is (i, 1+i%2, i/4), served in dense
// batches of batchRows. Once the reader's batch is warm it fills batches
// without allocating, so what an ingest over it allocates is the ingest's.
type genFormat struct {
	splitRows []int
	batchRows int
}

type genSplit int

func (genSplit) Locations() []string { return nil }
func (genSplit) Length() int64       { return 1 }
func (s genSplit) String() string    { return fmt.Sprintf("gen#%d", int(s)) }

func (f *genFormat) Schema() (row.Schema, error) { return edgeSchema(), nil }

func (f *genFormat) Splits(int) ([]hadoopfmt.InputSplit, error) {
	out := make([]hadoopfmt.InputSplit, len(f.splitRows))
	for i := range out {
		out[i] = genSplit(i)
	}
	return out, nil
}

func (f *genFormat) Open(split hadoopfmt.InputSplit, _ *cluster.Node) (hadoopfmt.RecordReader, error) {
	return &genReader{rows: f.splitRows[int(split.(genSplit))], batch: f.batchRows}, nil
}

type genReader struct {
	next, rows, batch int
}

var genTypes = row.SchemaTypes(edgeSchema())

func (r *genReader) NextColBatch(dst *row.ColBatch) (int, bool, error) {
	dst.Reset(genTypes)
	if r.next == r.rows {
		return 0, false, nil
	}
	k := min(r.batch, r.rows-r.next)
	for i := r.next; i < r.next+k; i++ {
		dst.Col(0).AppendInt(int64(i))
		dst.Col(1).AppendInt(int64(1 + i%2))
		dst.Col(2).AppendFloat(float64(i) / 4)
	}
	dst.SetFullLen(k)
	r.next += k
	return k, true, nil
}

func (r *genReader) Next() (row.Row, bool, error) {
	return nil, false, fmt.Errorf("genReader serves batches only")
}
func (r *genReader) Close() error { return nil }

// TestIngestAllocatesOnlyTheDataset bounds a warm ingest's heap bytes by
// the dataset's own memory: 32 B of LabeledPoint per point in its
// partition and 8·nf B of features in its batch's slab, plus a constant
// per split (the reader, the task, the partition's page rounding). Labels
// go through a pooled scratch, not a per-batch point array that the
// partition copies and drops. sync.Pool keeps its items only until the
// next GC but one (and under the race detector drops some at random), so
// the bound is held to the best of several warm ingests: the steady state.
// Batches of 1024 rows with nf = 2 make every slab an exact size class.
func TestIngestAllocatesOnlyTheDataset(t *testing.T) {
	const (
		splitRows = 8 * 1024
		splits    = 2
		nf        = 2
		perSplit  = 4 << 10
	)
	topo := cluster.NewTopology(2)
	f := &genFormat{splitRows: []int{splitRows, splitRows}, batchRows: 1024}
	opts := edgeOptions(topo.Nodes())
	ingest := func() *Dataset {
		d, err := Ingest(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	want := uint64(splits*splitRows*(32+8*nf) + splits*perSplit)
	for range 2 {
		ingest()
	}
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 50 {
		runtime.ReadMemStats(&before)
		d := ingest()
		runtime.ReadMemStats(&after)
		if d.NumRows() != splits*splitRows || d.NumFeatures != nf {
			t.Fatalf("%d points of %d features, want %d of %d", d.NumRows(), d.NumFeatures, splits*splitRows, nf)
		}
		if best = min(best, after.TotalAlloc-before.TotalAlloc); best <= want {
			t.Logf("%d B for %d points (bound %d B)", best, d.NumRows(), want)
			return
		}
	}
	t.Errorf("a warm ingest of %d points allocates %d B at best, want at most %d (%d B per point and %d B per split)",
		splits*splitRows, best, want, 32+8*nf, perSplit)
}

// TestIngestConcurrentSplitsShareNoLabels runs ingests of formats with
// different split and batch lengths concurrently with one whose second
// split fails on a NULL label in its third batch, so that split scratches
// pass between splits of every length and from failed attempts. Every
// successful dataset must equal the same format's ingest run alone; a
// label left behind by a failed or an earlier split would show as a
// difference, and the failing format's label values, above every other
// format's, must appear in no dataset.
func TestIngestConcurrentSplitsShareNoLabels(t *testing.T) {
	topo := cluster.NewTopology(3)
	opts := edgeOptions(topo.Nodes())
	opts.LabelTransform = nil
	labelled := func(n int, label int64) []row.Row {
		rows := manyRows(n)
		for i, r := range rows {
			rows[i] = row.Row{r[0], row.Int(label + int64(i%3)), r[2]}
		}
		return rows
	}
	const poison = 99
	formats := []*batchFormat{
		newBatchFormat(edgeSchema(), [][]testBatch{batchesOf(labelled(3000, 10), 700), batchesOf(labelled(150, 20), 64)}),
		newBatchFormat(edgeSchema(), [][]testBatch{batchesOf(labelled(40, 30), 7), batchesOf(labelled(2100, 40), 1024), batchesOf(labelled(900, 50), 300)}),
		newBatchFormat(edgeSchema(), [][]testBatch{batchesOf(labelled(1, 60), 1)}),
	}
	bad := labelled(2000, poison)
	bad[1500] = row.Row{row.Int(7), nullInt, row.Float(1)}
	failing := newBatchFormat(edgeSchema(), [][]testBatch{batchesOf(labelled(500, poison), 100), batchesOf(bad, 600)})

	alone := make([]*Dataset, len(formats))
	for i, f := range formats {
		d, err := Ingest(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = d
	}
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, (len(formats)+1)*rounds)
	for i, f := range formats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				d, err := Ingest(f, opts)
				if err != nil {
					errs <- fmt.Errorf("format %d: %v", i, err)
					continue
				}
				if !reflect.DeepEqual(d.Parts, alone[i].Parts) {
					errs <- fmt.Errorf("format %d: concurrent ingest differs from the ingest run alone", i)
				}
				for _, p := range d.All() {
					if p.Label >= poison {
						errs <- fmt.Errorf("format %d: holds the failing format's label", i)
						break
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range rounds {
			if _, err := Ingest(failing, opts); err == nil || err.Error() != "ml: NULL label" {
				errs <- fmt.Errorf("failing format: err = %v, want ml: NULL label", err)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkIngestSplit ingests one split of 64 Ki rows in batches of
// 1024: the per-point cost of readSplit, convertBatch and the partition.
func BenchmarkIngestSplit(b *testing.B) {
	const rows = 64 * 1024
	topo := cluster.NewTopology(1)
	f := &genFormat{splitRows: []int{rows}, batchRows: 1024}
	opts := edgeOptions(topo.Nodes())
	b.ReportAllocs()
	b.SetBytes(rows * 3 * 8)
	for range b.N {
		if _, err := Ingest(f, opts); err != nil {
			b.Fatal(err)
		}
	}
}

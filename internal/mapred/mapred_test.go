package mapred

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"sqlml/internal/cluster"
	"sqlml/internal/dfs"
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/row"
)

type testCluster struct {
	topo *cluster.Topology
	fs   *dfs.FileSystem
	cost *cluster.CostModel
}

func newTestCluster(t testing.TB) *testCluster {
	t.Helper()
	topo := cluster.NewTopology(5)
	cost := &cluster.CostModel{DiskReadBps: 1e9, DiskWriteBps: 1e9, NetBps: 1e9}
	fs := dfs.New(topo, dfs.Config{BlockSize: 256, Replication: 2, Cost: cost})
	return &testCluster{topo: topo, fs: fs, cost: cost}
}

func wordsSchema() row.Schema {
	return row.MustSchema(row.Column{Name: "line", Type: row.TypeString})
}

func countSchema() row.Schema {
	return row.MustSchema(
		row.Column{Name: "word", Type: row.TypeString},
		row.Column{Name: "n", Type: row.TypeInt},
	)
}

// TestWordCount is the canonical end-to-end MapReduce check.
func TestWordCount(t *testing.T) {
	c := newTestCluster(t)
	lines := []row.Row{
		{row.String_("the quick brown fox")},
		{row.String_("the lazy dog")},
		{row.String_("the quick dog")},
	}
	if _, err := hadoopfmt.WriteTextTable(c.fs, "/in/lines", wordsSchema(), lines, c.topo.Node(0)); err != nil {
		t.Fatal(err)
	}
	job := &Job{
		Name:  "wordcount",
		Input: hadoopfmt.NewTextTableFormat(c.fs, "/in/lines", wordsSchema()),
		Mapper: MapperFunc(func(r row.Row, emit func(string, row.Row) error) error {
			for _, w := range strings.Fields(r[0].AsString()) {
				if err := emit(w, row.Row{row.Int(1)}); err != nil {
					return err
				}
			}
			return nil
		}),
		Reducer: ReducerFunc(func(key string, values []row.Row, emit func(row.Row) error) error {
			var n int64
			for _, v := range values {
				n += v[0].AsInt()
			}
			return emit(row.Row{row.String_(key), row.Int(n)})
		}),
		NumReducers:  3,
		OutputPath:   "/out/wc",
		OutputSchema: countSchema(),
		Cluster:      Cluster{Topo: c.topo, FS: c.fs, Cost: c.cost, TaskNodes: []int{1, 2, 3, 4}},
	}
	stats, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if stats.InputRows != 3 || stats.MapOutputs != 10 {
		t.Errorf("stats = %+v", stats)
	}
	got, err := hadoopfmt.ReadAll(Output(job), c.topo.Node(0))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, r := range got {
		counts[r[0].AsString()] = r[1].AsInt()
	}
	want := map[string]int64{"the": 3, "quick": 2, "dog": 2, "brown": 1, "fox": 1, "lazy": 1}
	if len(counts) != len(want) {
		t.Fatalf("counts = %v", counts)
	}
	for w, n := range want {
		if counts[w] != n {
			t.Errorf("count[%s] = %d, want %d", w, counts[w], n)
		}
	}
}

func TestMapOnlyJob(t *testing.T) {
	c := newTestCluster(t)
	var rows []row.Row
	for i := 0; i < 40; i++ {
		rows = append(rows, row.Row{row.String_(fmt.Sprintf("line %d", i))})
	}
	if _, err := hadoopfmt.WriteTextTable(c.fs, "/in/m", wordsSchema(), rows, c.topo.Node(1)); err != nil {
		t.Fatal(err)
	}
	job := &Job{
		Name:  "upper",
		Input: hadoopfmt.NewTextTableFormat(c.fs, "/in/m", wordsSchema()),
		Mapper: MapperFunc(func(r row.Row, emit func(string, row.Row) error) error {
			return emit("", row.Row{row.String_(strings.ToUpper(r[0].AsString()))})
		}),
		OutputPath:   "/out/m",
		OutputSchema: wordsSchema(),
		Cluster:      Cluster{Topo: c.topo, FS: c.fs, Cost: c.cost, TaskNodes: []int{1, 2, 3, 4}},
	}
	stats, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReduceTasks != 0 {
		t.Errorf("map-only job ran %d reducers", stats.ReduceTasks)
	}
	if stats.OutputRows != 40 {
		t.Errorf("output rows = %d", stats.OutputRows)
	}
	got, err := hadoopfmt.ReadAll(Output(job), c.topo.Node(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 || !strings.HasPrefix(got[0][0].AsString(), "LINE") {
		t.Errorf("map-only output: %d rows, first %v", len(got), got[0])
	}
}

func TestReducerSeesSortedGroupedKeys(t *testing.T) {
	c := newTestCluster(t)
	var rows []row.Row
	for i := 0; i < 30; i++ {
		rows = append(rows, row.Row{row.String_(fmt.Sprintf("k%d", i%3))})
	}
	if _, err := hadoopfmt.WriteTextTable(c.fs, "/in/g", wordsSchema(), rows, c.topo.Node(0)); err != nil {
		t.Fatal(err)
	}
	var mu struct {
		sorted bool
		keys   []string
	}
	mu.sorted = true
	job := &Job{
		Name:  "grouping",
		Input: hadoopfmt.NewTextTableFormat(c.fs, "/in/g", wordsSchema()),
		Mapper: MapperFunc(func(r row.Row, emit func(string, row.Row) error) error {
			return emit(r[0].AsString(), r)
		}),
		Reducer: ReducerFunc(func(key string, values []row.Row, emit func(row.Row) error) error {
			if len(values) != 10 {
				return fmt.Errorf("group %s has %d values, want 10", key, len(values))
			}
			return emit(row.Row{row.String_(key), row.Int(int64(len(values)))})
		}),
		NumReducers:  1, // single reducer sees all keys in sorted order
		OutputPath:   "/out/g",
		OutputSchema: countSchema(),
		Cluster:      Cluster{Topo: c.topo, FS: c.fs, Cost: c.cost, TaskNodes: []int{1, 2}},
	}
	if _, err := Run(job); err != nil {
		t.Fatal(err)
	}
	got, err := hadoopfmt.ReadAll(Output(job), c.topo.Node(0))
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, r := range got {
		keys = append(keys, r[0].AsString())
	}
	if !sort.StringsAreSorted(keys) {
		t.Errorf("reducer output keys not sorted: %v", keys)
	}
	_ = mu
}

func TestShuffleChargesNetwork(t *testing.T) {
	c := newTestCluster(t)
	var rows []row.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, row.Row{row.String_(fmt.Sprintf("key%d payload-%d", i, i))})
	}
	if _, err := hadoopfmt.WriteTextTable(c.fs, "/in/s", wordsSchema(), rows, c.topo.Node(1)); err != nil {
		t.Fatal(err)
	}
	c.cost.ResetStats()
	job := &Job{
		Name:  "shuffle",
		Input: hadoopfmt.NewTextTableFormat(c.fs, "/in/s", wordsSchema()),
		Mapper: MapperFunc(func(r row.Row, emit func(string, row.Row) error) error {
			return emit(strings.Fields(r[0].AsString())[0], r)
		}),
		Reducer: ReducerFunc(func(key string, values []row.Row, emit func(row.Row) error) error {
			return emit(row.Row{row.String_(key), row.Int(int64(len(values)))})
		}),
		NumReducers:  4,
		OutputPath:   "/out/s",
		OutputSchema: countSchema(),
		Cluster:      Cluster{Topo: c.topo, FS: c.fs, Cost: c.cost, TaskNodes: []int{1, 2, 3, 4}},
	}
	stats, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShuffleBytes == 0 {
		t.Error("expected nonzero shuffle traffic with 4 reducers")
	}
	if c.cost.Stats().NetBytes == 0 {
		t.Error("shuffle did not charge the network cost model")
	}
}

func TestJobValidation(t *testing.T) {
	c := newTestCluster(t)
	good := func() *Job {
		return &Job{
			Name:         "v",
			Input:        &hadoopfmt.SliceFormat{Rows: []row.Row{{row.Int(1)}}, RowSchema: row.MustSchema(row.Column{Name: "a", Type: row.TypeInt})},
			Mapper:       MapperFunc(func(r row.Row, emit func(string, row.Row) error) error { return emit("", r) }),
			OutputPath:   "/out/v",
			OutputSchema: row.MustSchema(row.Column{Name: "a", Type: row.TypeInt}),
			Cluster:      Cluster{Topo: c.topo, FS: c.fs, TaskNodes: []int{0}},
		}
	}
	mutations := []func(*Job){
		func(j *Job) { j.Input = nil },
		func(j *Job) { j.Mapper = nil },
		func(j *Job) { j.FS = nil },
		func(j *Job) { j.TaskNodes = nil },
		func(j *Job) { j.OutputPath = "" },
		func(j *Job) { j.OutputSchema = row.Schema{} },
	}
	for i, mut := range mutations {
		j := good()
		mut(j)
		if _, err := Run(j); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := Run(good()); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
}

func TestMapErrorPropagates(t *testing.T) {
	c := newTestCluster(t)
	job := &Job{
		Name:  "boom",
		Input: &hadoopfmt.SliceFormat{Rows: []row.Row{{row.Int(1)}}, RowSchema: row.MustSchema(row.Column{Name: "a", Type: row.TypeInt})},
		Mapper: MapperFunc(func(r row.Row, emit func(string, row.Row) error) error {
			return fmt.Errorf("mapper exploded")
		}),
		OutputPath:   "/out/boom",
		OutputSchema: row.MustSchema(row.Column{Name: "a", Type: row.TypeInt}),
		Cluster:      Cluster{Topo: c.topo, FS: c.fs, TaskNodes: []int{0}},
	}
	if _, err := Run(job); err == nil || !strings.Contains(err.Error(), "mapper exploded") {
		t.Errorf("map error not propagated: %v", err)
	}
}

// A map task reads SliceFormat through Next, which checks each row against
// the schema: a malformed row fails the job with its index in the split,
// where the mapper trusting the schema would otherwise index past a short
// row or call AsInt on a VARCHAR.
func TestMapTaskRejectsMalformedSliceRows(t *testing.T) {
	c := newTestCluster(t)
	for i, bad := range []row.Row{
		{row.String_("short")},
		{row.String_("w"), row.String_("not a count")},
	} {
		job := &Job{
			Name:  fmt.Sprintf("malformed%d", i),
			Input: &hadoopfmt.SliceFormat{Rows: []row.Row{{row.String_("a"), row.Int(1)}, bad}, RowSchema: countSchema()},
			Mapper: MapperFunc(func(r row.Row, emit func(string, row.Row) error) error {
				return emit(r[0].AsString(), row.Row{r[0], row.Int(r[1].AsInt() + 1)})
			}),
			OutputPath:   fmt.Sprintf("/out/malformed%d", i),
			OutputSchema: countSchema(),
			Cluster:      Cluster{Topo: c.topo, FS: c.fs, TaskNodes: []int{0}},
		}
		if _, err := Run(job); err == nil || !strings.Contains(err.Error(), "row 1") {
			t.Errorf("row %v: err = %v, want one naming row 1", bad, err)
		}
	}
}

func TestDirFormatReadsAllParts(t *testing.T) {
	c := newTestCluster(t)
	s := countSchema()
	for i := 0; i < 3; i++ {
		rows := []row.Row{{row.String_(fmt.Sprintf("w%d", i)), row.Int(int64(i))}}
		if _, err := hadoopfmt.WriteTextTable(c.fs, fmt.Sprintf("/dir/part-%d", i), s, rows, c.topo.Node(0)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := hadoopfmt.ReadAll(DirFormat(c.fs, "/dir", s), c.topo.Node(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("dir format rows = %d", len(got))
	}
	if _, err := DirFormat(c.fs, "/nosuch", s).Splits(0); err == nil {
		t.Error("empty dir accepted")
	}
}

func TestCombinerReducesShuffleWithoutChangingResults(t *testing.T) {
	c := newTestCluster(t)
	var lines []row.Row
	for i := 0; i < 200; i++ {
		lines = append(lines, row.Row{row.String_(fmt.Sprintf("w%d filler filler", i%5))})
	}
	if _, err := hadoopfmt.WriteTextTable(c.fs, "/in/comb", wordsSchema(), lines, c.topo.Node(0)); err != nil {
		t.Fatal(err)
	}
	sumReducer := ReducerFunc(func(key string, values []row.Row, emit func(row.Row) error) error {
		var n int64
		for _, v := range values {
			n += v[0].AsInt()
		}
		return emit(row.Row{row.Int(n)})
	})
	makeJob := func(out string, withCombiner bool) *Job {
		j := &Job{
			Name:  "comb",
			Input: hadoopfmt.NewTextTableFormat(c.fs, "/in/comb", wordsSchema()),
			Mapper: MapperFunc(func(r row.Row, emit func(string, row.Row) error) error {
				return emit(strings.Fields(r[0].AsString())[0], row.Row{row.Int(1)})
			}),
			Reducer: ReducerFunc(func(key string, values []row.Row, emit func(row.Row) error) error {
				var n int64
				for _, v := range values {
					n += v[0].AsInt()
				}
				return emit(row.Row{row.String_(key), row.Int(n)})
			}),
			NumReducers:  2,
			OutputPath:   out,
			OutputSchema: countSchema(),
			Cluster:      Cluster{Topo: c.topo, FS: c.fs, Cost: c.cost, TaskNodes: []int{1, 2, 3, 4}},
		}
		if withCombiner {
			j.Combiner = sumReducer
		}
		return j
	}
	plain := makeJob("/out/comb-plain", false)
	statsPlain, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	combined := makeJob("/out/comb-comb", true)
	statsComb, err := Run(combined)
	if err != nil {
		t.Fatal(err)
	}
	if statsComb.ShuffleBytes >= statsPlain.ShuffleBytes {
		t.Errorf("combiner did not shrink the shuffle: %d vs %d",
			statsComb.ShuffleBytes, statsPlain.ShuffleBytes)
	}
	read := func(j *Job) map[string]int64 {
		rows, err := hadoopfmt.ReadAll(Output(j), c.topo.Node(0))
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int64{}
		for _, r := range rows {
			out[r[0].AsString()] = r[1].AsInt()
		}
		return out
	}
	a, b := read(plain), read(combined)
	if len(a) != len(b) || len(a) != 5 {
		t.Fatalf("result sizes differ: %v vs %v", a, b)
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("count[%s]: %d vs %d", k, v, b[k])
		}
	}
}

// TestReducerOfIsFNV1aWithoutAllocating: reducer assignment is FNV-1a of
// the key modulo the reducer count — the hash part files were always cut
// by — and hashing a map output key, however long, allocates nothing.
func TestReducerOfIsFNV1aWithoutAllocating(t *testing.T) {
	fnv1a := func(s string) uint64 {
		h := uint64(14695981039346656037)
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		return h
	}
	long := strings.Repeat("abandoned-cart-", 20)
	for _, key := range []string{"", "a", "USA", "carts|42", long} {
		for _, n := range []int{1, 3, 7} {
			if got, want := reducerOf(key, n), int(fnv1a(key)%uint64(n)); got != want {
				t.Errorf("reducerOf(%q, %d) = %d, want %d", key, n, got, want)
			}
		}
	}
	sum := 0
	if a := testing.AllocsPerRun(100, func() { sum += reducerOf(long, 7) }); a != 0 {
		t.Errorf("reducerOf allocates %v times per call, want 0", a)
	}
}

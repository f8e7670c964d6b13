package hadoopfmt

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"sqlml/internal/cluster"
	"sqlml/internal/dfs"
	"sqlml/internal/row"
)

func tableSchema() row.Schema {
	return row.MustSchema(
		row.Column{Name: "id", Type: row.TypeInt},
		row.Column{Name: "name", Type: row.TypeString},
	)
}

func makeRows(n int, rng *rand.Rand) []row.Row {
	names := []string{"alice", "bob", "carol", "with,comma", `with"quote`, "", "longer-name-to-vary-line-lengths"}
	rows := make([]row.Row, n)
	for i := range rows {
		name := row.String_(names[rng.Intn(len(names))])
		if rng.Intn(10) == 0 {
			name = row.NullOf(row.TypeString)
		}
		rows[i] = row.Row{row.Int(int64(i)), name}
	}
	return rows
}

func writeTable(t testing.TB, fs *dfs.FileSystem, path string, rows []row.Row) {
	t.Helper()
	if _, err := WriteTextTable(fs, path, tableSchema(), rows, fs.Topology().Node(0)); err != nil {
		t.Fatal(err)
	}
}

func collect(t testing.TB, f InputFormat, splits []InputSplit, node *cluster.Node) []row.Row {
	t.Helper()
	var out []row.Row
	for _, s := range splits {
		rr, err := f.Open(s, node)
		if err != nil {
			t.Fatal(err)
		}
		for {
			r, ok, err := rr.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			out = append(out, r)
		}
		if err := rr.Close(); err != nil {
			t.Fatalf("close reader: %v", err)
		}
	}
	return out
}

func idsOf(rows []row.Row) []int64 {
	ids := make([]int64, len(rows))
	for i, r := range rows {
		ids[i] = r[0].AsInt()
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestReadAllMatchesWritten(t *testing.T) {
	topo := cluster.NewTopology(3)
	fs := dfs.New(topo, dfs.Config{BlockSize: 64, Replication: 2})
	rng := rand.New(rand.NewSource(1))
	rows := makeRows(200, rng)
	writeTable(t, fs, "/tbl", rows)
	f := NewTextTableFormat(fs, "/tbl", tableSchema())
	got, err := ReadAll(f, topo.Node(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("got %d rows, want %d", len(got), len(rows))
	}
	for i := range got {
		if !got[i].Equal(rows[i]) {
			t.Fatalf("row %d mismatch: %v vs %v", i, got[i], rows[i])
		}
	}
}

// TestSplitsPartitionLinesExactly is the critical Hadoop-semantics test:
// for every requested split count, the union of rows over splits must equal
// the table with no duplicates or losses, regardless of where byte
// boundaries land relative to lines.
func TestSplitsPartitionLinesExactly(t *testing.T) {
	topo := cluster.NewTopology(3)
	fs := dfs.New(topo, dfs.Config{BlockSize: 37, Replication: 1})
	rng := rand.New(rand.NewSource(7))
	rows := makeRows(150, rng)
	writeTable(t, fs, "/part", rows)
	f := NewTextTableFormat(fs, "/part", tableSchema())

	for _, numSplits := range []int{1, 2, 3, 5, 8, 13, 50} {
		splits, err := f.Splits(numSplits)
		if err != nil {
			t.Fatal(err)
		}
		got := collect(t, f, splits, topo.Node(0))
		ids := idsOf(got)
		if len(ids) != len(rows) {
			t.Fatalf("numSplits=%d: got %d rows, want %d", numSplits, len(ids), len(rows))
		}
		for i, id := range ids {
			if id != int64(i) {
				t.Fatalf("numSplits=%d: ids[%d]=%d (duplicate or lost row)", numSplits, i, id)
			}
		}
	}
}

func TestBlockAlignedSplitsCarryLocality(t *testing.T) {
	topo := cluster.NewTopology(4)
	fs := dfs.New(topo, dfs.Config{BlockSize: 53, Replication: 2})
	rng := rand.New(rand.NewSource(3))
	writeTable(t, fs, "/loc", makeRows(100, rng))
	f := NewTextTableFormat(fs, "/loc", tableSchema())
	splits, err := f.Splits(0) // block-aligned
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) < 2 {
		t.Fatalf("expected multiple block splits, got %d", len(splits))
	}
	for _, s := range splits {
		if len(s.Locations()) != 2 {
			t.Errorf("split %s has %d locations, want 2 (replication)", s, len(s.Locations()))
		}
	}
	got := collect(t, f, splits, topo.Node(0))
	if len(got) != 100 {
		t.Errorf("block splits returned %d rows, want 100", len(got))
	}
}

// TestPlace pins the one split placement every consumer of the seam
// schedules through.
func TestPlace(t *testing.T) {
	topo := cluster.NewTopology(4)
	addr := func(i int) string { return topo.Node(i).Addr }
	split := func(n int64, hosts ...string) InputSplit {
		return &FileSplit{Path: "/p", Len: n, Hosts: hosts}
	}
	for _, tc := range []struct {
		name   string
		nodes  []int // topology node IDs, in candidate order
		splits []InputSplit
		want   []int // indices into nodes
	}{
		{"local host beats less-loaded remote", []int{0, 1, 2, 3},
			[]InputSplit{split(100, addr(1)), split(10, addr(1))}, []int{1, 1}},
		{"least-loaded local host", []int{0, 1, 2, 3},
			[]InputSplit{split(100, addr(1), addr(2)), split(50, addr(1), addr(2)), split(10, addr(1), addr(2))}, []int{1, 2, 2}},
		{"tie goes to lowest index, not host order", []int{0, 1, 2, 3},
			[]InputSplit{split(5, addr(3), addr(1)), split(5)}, []int{1, 0}},
		{"no local host: least-loaded overall", []int{0, 1, 2, 3},
			[]InputSplit{split(100, addr(0)), split(10, "10.9.9.9"), split(10), split(10), split(10)}, []int{0, 1, 2, 3, 1}},
		{"loads accumulate Length", []int{0, 1, 2, 3},
			[]InputSplit{split(30, addr(0), addr(1)), split(20, addr(0), addr(1)), split(5, addr(0), addr(1)), split(10, addr(0), addr(1)), split(1, addr(0), addr(1))}, []int{0, 1, 1, 1, 0}},
		{"zero-length stream splits stay on the first local node", []int{0, 1, 2, 3},
			[]InputSplit{split(0, addr(2), addr(3)), split(0, addr(2), addr(3)), split(0, addr(2), addr(3))}, []int{2, 2, 2}},
		{"zero-length splits without hosts all land on index 0", []int{0, 1, 2, 3},
			[]InputSplit{split(0), split(0)}, []int{0, 0}},
		{"indices are into nodes, not node IDs", []int{3, 1},
			[]InputSplit{split(10, addr(1)), split(10, addr(0))}, []int{1, 0}},
		{"no splits", []int{0}, nil, []int{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := make([]*cluster.Node, len(tc.nodes))
			for i, id := range tc.nodes {
				nodes[i] = topo.Node(id)
			}
			if got := Place(tc.splits, nodes); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("Place = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestEmptyTableHasNoSplits: an empty file, a directory of empty part
// files and a directory holding only the _SUCCESS marker are all empty
// tables; a path with no file under it is an error.
func TestEmptyTableHasNoSplits(t *testing.T) {
	topo := cluster.NewTopology(1)
	fs := dfs.New(topo, dfs.Config{})
	for _, p := range []string{"/empty", "/parts/part-00000", "/parts/part-00001", "/parts/_SUCCESS", "/marker/_SUCCESS"} {
		writeTable(t, fs, p, nil)
	}
	for _, path := range []string{"/empty", "/parts", "/marker"} {
		splits, err := NewTextTableFormat(fs, path, tableSchema()).Splits(4)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(splits) != 0 {
			t.Errorf("%s: empty table produced %d splits", path, len(splits))
		}
	}
	if _, err := NewTextTableFormat(fs, "/nosuch", tableSchema()).Splits(0); err == nil {
		t.Error("a path with no file under it was accepted")
	}
}

func TestSplitsNeverExceedBytes(t *testing.T) {
	topo := cluster.NewTopology(1)
	fs := dfs.New(topo, dfs.Config{BlockSize: 1024})
	writeTable(t, fs, "/tiny", makeRows(2, rand.New(rand.NewSource(1))))
	f := NewTextTableFormat(fs, "/tiny", tableSchema())
	splits, err := f.Splits(1000) // far more than bytes in the file
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, f, splits, topo.Node(0))
	if len(got) != 2 {
		t.Errorf("oversplit table returned %d rows, want 2", len(got))
	}
}

func TestPartitionProperty(t *testing.T) {
	topo := cluster.NewTopology(2)
	i := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fs := dfs.New(topo, dfs.Config{BlockSize: int64(16 + rng.Intn(100)), Replication: 1})
		n := 1 + rng.Intn(80)
		rows := makeRows(n, rng)
		i++
		path := fmt.Sprintf("/p/%d", i)
		if _, err := WriteTextTable(fs, path, tableSchema(), rows, topo.Node(0)); err != nil {
			return false
		}
		fm := NewTextTableFormat(fs, path, tableSchema())
		numSplits := 1 + rng.Intn(12)
		splits, err := fm.Splits(numSplits)
		if err != nil {
			return false
		}
		var got []row.Row
		for _, s := range splits {
			rr, err := fm.Open(s, topo.Node(rng.Intn(2)))
			if err != nil {
				return false
			}
			for {
				r, ok, err := rr.Next()
				if err != nil {
					return false
				}
				if !ok {
					break
				}
				got = append(got, r)
			}
			if err := rr.Close(); err != nil {
				return false
			}
		}
		ids := idsOf(got)
		if len(ids) != n {
			return false
		}
		for j, id := range ids {
			if id != int64(j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestSliceFormat(t *testing.T) {
	rows := makeRows(10, rand.New(rand.NewSource(2)))
	sf := &SliceFormat{Rows: rows, RowSchema: tableSchema(), Hosts: []string{"10.0.0.1"}}
	splits, err := sf.Splits(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 3 {
		t.Fatalf("splits = %d", len(splits))
	}
	if splits[0].Locations()[0] != "10.0.0.1" {
		t.Error("locality not propagated")
	}
	got := collect(t, sf, splits, nil)
	if len(got) != 10 {
		t.Errorf("slice format returned %d rows", len(got))
	}
	if _, err := (&SliceFormat{}).Splits(4); err != nil {
		t.Errorf("empty slice format: %v", err)
	}
}

// A row that does not conform to SliceFormat's schema is an error naming
// the row's index in its split, on either face, and not a panic in the
// consumer that trusts the schema.
func TestSliceFormatRejectsMalformedRows(t *testing.T) {
	good := row.Row{row.Int(1), row.String_("a")}
	for _, tc := range []struct {
		name string
		bad  row.Row
		want string
	}{
		{"short row", row.Row{row.Int(2)}, "arity 1"},
		{"VARCHAR in a BIGINT column", row.Row{row.String_("two"), row.String_("b")}, `column "id" is BIGINT, value is VARCHAR`},
	} {
		rows := []row.Row{good, good, good, tc.bad, good}
		sf := &SliceFormat{Rows: rows, RowSchema: tableSchema()}
		splits, err := sf.Splits(2) // splits of 3 and 2 rows: the bad row is row 0 of the second
		if err != nil || len(splits) != 2 {
			t.Fatalf("splits = %v, err = %v", splits, err)
		}
		for _, columnar := range []bool{true, false} {
			rr, err := sf.Open(splits[1], nil)
			if err != nil {
				t.Fatal(err)
			}
			if columnar {
				_, _, err = rr.NextColBatch(row.NewColBatch(nil))
			} else {
				_, _, err = rr.Next()
			}
			if err == nil {
				t.Fatalf("%s: columnar=%v: malformed row accepted", tc.name, columnar)
			}
			for _, want := range []string{splits[1].String(), "row 0", tc.want} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s: columnar=%v: error %q does not name %q", tc.name, columnar, err, want)
				}
			}
		}
		// ReadAll reads one split, where the bad row is row 3.
		if _, err := ReadAll(sf, nil); err == nil || !strings.Contains(err.Error(), "row 3") {
			t.Errorf("%s: ReadAll: err = %v", tc.name, err)
		}
	}
}

func TestWriteTextTableRejectsNonConformingRows(t *testing.T) {
	topo := cluster.NewTopology(1)
	fs := dfs.New(topo, dfs.Config{})
	bad := []row.Row{{row.String_("not-an-int"), row.String_("x")}}
	if _, err := WriteTextTable(fs, "/bad", tableSchema(), bad, topo.Node(0)); err == nil {
		t.Error("non-conforming row accepted")
	}
	if fs.Exists("/bad") {
		t.Error("aborted write left a file behind")
	}
}

func TestOpenRejectsForeignSplitType(t *testing.T) {
	topo := cluster.NewTopology(1)
	fs := dfs.New(topo, dfs.Config{})
	writeTable(t, fs, "/x", makeRows(1, rand.New(rand.NewSource(1))))
	f := NewTextTableFormat(fs, "/x", tableSchema())
	if _, err := f.Open(&sliceSplit{}, nil); err == nil {
		t.Error("foreign split type accepted")
	}
}

// TestOpenAllocsIndependentOfBlocks: opening a split asks the namenode
// for the file's length only, so Open allocates the same on a one-block
// file and a thousand-block file, at the file's start and mid-file (where
// Open also skips the previous split's partial line). The one-alloc slack
// absorbs sync.Pool dropping a read buffer under -race; the block map of
// a thousand-block file is a thousand allocations.
func TestOpenAllocsIndependentOfBlocks(t *testing.T) {
	const bs = 64
	topo := cluster.NewTopology(4)
	fs := dfs.New(topo, dfs.Config{BlockSize: bs, Replication: 3})
	line := "1234567,abcdef\n" // 16 bytes: four lines a block
	for _, f := range []struct {
		path  string
		lines int
	}{{"/one", bs / len(line)}, {"/many", 1000 * bs / len(line)}} {
		if err := fs.WriteFile(f.path, []byte(strings.Repeat(line, f.lines)), topo.Node(0)); err != nil {
			t.Fatal(err)
		}
	}
	open := func(path string, off int64) float64 {
		f := NewTextTableFormat(fs, path, tableSchema())
		split := &FileSplit{Path: path, Offset: off, Len: bs}
		return testing.AllocsPerRun(100, func() {
			rr, err := f.Open(split, topo.Node(1))
			if err != nil {
				t.Fatal(err)
			}
			if err := rr.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, at := range []struct {
		name      string
		one, many int64
	}{{"start", 0, 0}, {"mid-file", bs / 2, 500*bs + bs/2}} {
		one, many := open("/one", at.one), open("/many", at.many)
		if many > one+1 {
			t.Errorf("%s: Open allocates %.0f times on 1000 blocks, %.0f on 1", at.name, many, one)
		}
	}
}

// TestRunTasks pins the task runner's contract: retryable failures re-run
// with the next attempt number up to MaxTaskAttempts, other errors come
// back unchanged after one attempt, the lowest failing task's error wins,
// and all n tasks run at once.
func TestRunTasks(t *testing.T) {
	errLogic := errors.New("logic error")
	crash := func(i, attempt int) error {
		return &RetryableError{Err: fmt.Errorf("task %d attempt %d crashed", i, attempt)}
	}
	// barrier opens once every task has started; a runner that holds some
	// tasks back until others finish times out instead of hanging.
	const wide = 32
	var started atomic.Int64
	open := make(chan struct{})
	barrier := func(i, attempt int) error {
		if started.Add(1) == wide {
			close(open)
		}
		select {
		case <-open:
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("task %d: only %d of %d tasks started", i, started.Load(), wide)
		}
	}
	cases := []struct {
		name  string
		n     int
		task  func(i, attempt int) error
		check func(t *testing.T, err error, attempts [][]int)
	}{
		{"retryable re-runs with the next attempt", 1,
			func(i, attempt int) error {
				if attempt < 2 {
					return crash(i, attempt)
				}
				return nil
			},
			func(t *testing.T, err error, attempts [][]int) {
				if err != nil || !slices.Equal(attempts[0], []int{0, 1, 2}) {
					t.Errorf("err %v, attempts %v; want nil after attempts [0 1 2]", err, attempts[0])
				}
			}},
		// The task crashes for twice the budget, so a runner that ignores
		// the budget fails the check instead of spinning.
		{"budget exhausted after MaxTaskAttempts", 1,
			func(i, attempt int) error {
				if attempt < 2*MaxTaskAttempts {
					return crash(i, attempt)
				}
				return nil
			},
			func(t *testing.T, err error, attempts [][]int) {
				if len(attempts[0]) != MaxTaskAttempts {
					t.Errorf("%d attempts, want %d", len(attempts[0]), MaxTaskAttempts)
				}
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("attempt budget (%d) exhausted", MaxTaskAttempts)) {
					t.Errorf("error does not name the budget: %v", err)
				}
				if !IsRetryable(err) {
					t.Errorf("exhausted-budget error lost its RetryableError: %v", err)
				}
			}},
		{"non-retryable runs once and comes back unchanged", 1,
			func(int, int) error { return errLogic },
			func(t *testing.T, err error, attempts [][]int) {
				if err != errLogic || len(attempts[0]) != 1 {
					t.Errorf("err %v after %d attempts; want the logic error itself after 1", err, len(attempts[0]))
				}
			}},
		{"lowest failing index wins", 4,
			func(i, _ int) error {
				if i%2 == 1 {
					return fmt.Errorf("task %d: %w", i, errLogic)
				}
				return nil
			},
			func(t *testing.T, err error, _ [][]int) {
				if !errors.Is(err, errLogic) || !strings.HasPrefix(err.Error(), "task 1:") {
					t.Errorf("err %v, want task 1's error", err)
				}
			}},
		{"all tasks run at once", wide, barrier,
			func(t *testing.T, err error, _ [][]int) {
				if err != nil {
					t.Error(err)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			attempts := make([][]int, tc.n)
			err := RunTasks(tc.n, func(i, attempt int) error {
				mu.Lock()
				attempts[i] = append(attempts[i], attempt)
				mu.Unlock()
				return tc.task(i, attempt)
			})
			tc.check(t, err, attempts)
		})
	}
}

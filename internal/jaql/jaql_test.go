package jaql

import (
	"sort"
	"testing"

	"sqlml/internal/cluster"
	"sqlml/internal/dfs"
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/mapred"
	"sqlml/internal/row"
	"sqlml/internal/sqlengine"
	"sqlml/internal/transform"
)

func newEnv(t testing.TB) mapred.Cluster {
	t.Helper()
	topo := cluster.NewTopology(5)
	cost := &cluster.CostModel{DiskReadBps: 1e9, DiskWriteBps: 1e9, NetBps: 1e9}
	fs := dfs.New(topo, dfs.Config{BlockSize: 512, Replication: 2, Cost: cost})
	return mapred.Cluster{Topo: topo, FS: fs, Cost: cost, TaskNodes: []int{1, 2, 3, 4}}
}

func prepSchema() row.Schema {
	return row.MustSchema(
		row.Column{Name: "age", Type: row.TypeInt},
		row.Column{Name: "gender", Type: row.TypeString},
		row.Column{Name: "amount", Type: row.TypeFloat},
		row.Column{Name: "abandoned", Type: row.TypeString},
	)
}

func prepRows() []row.Row {
	return []row.Row{
		{row.Int(57), row.String_("F"), row.Float(314.62), row.String_("Yes")},
		{row.Int(40), row.String_("M"), row.Float(40.40), row.String_("Yes")},
		{row.Int(35), row.String_("F"), row.Float(151.17), row.String_("No")},
	}
}

func TestTransformEndToEnd(t *testing.T) {
	env := newEnv(t)
	if _, err := hadoopfmt.WriteTextTable(env.FS, "/stage/prep", prepSchema(), prepRows(), env.Topo.Node(1)); err != nil {
		t.Fatal(err)
	}
	spec := transform.Spec{
		RecodeCols: []string{"gender", "abandoned"},
		CodeCols:   []string{"gender"},
		Coding:     transform.CodingDummy,
	}
	res, err := Transform(env, "/stage/prep", prepSchema(), spec, "/stage/transformed")
	if err != nil {
		t.Fatal(err)
	}
	want := "age BIGINT, gender_1 BIGINT, gender_2 BIGINT, amount DOUBLE, abandoned BIGINT"
	if res.Schema.String() != want {
		t.Fatalf("schema = %s", res.Schema)
	}
	if res.Map.Cardinality("gender") != 2 || res.Map.Cardinality("abandoned") != 2 {
		t.Errorf("map cardinalities wrong")
	}
	got, err := hadoopfmt.ReadAll(mapred.DirFormat(env.FS, "/stage/transformed", res.Schema), env.Topo.Node(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("transformed rows = %d", len(got))
	}
	sort.Slice(got, func(i, j int) bool { return got[i][0].AsInt() > got[j][0].AsInt() })
	// Figure 1(c) shape: 57→F→(1,0), 40→M→(0,1), 35→F→(1,0).
	expect := [][2]int64{{1, 0}, {0, 1}, {1, 0}}
	for i, ex := range expect {
		if got[i][1].AsInt() != ex[0] || got[i][2].AsInt() != ex[1] {
			t.Errorf("row %d gender bits = %v %v, want %v", i, got[i][1], got[i][2], ex)
		}
	}
}

// TestMatchesInSQLTransform is the cross-system consistency check: the
// naive (Jaql/MapReduce) and In-SQL transformation paths must produce the
// same multiset of rows for the same input and spec.
func TestMatchesInSQLTransform(t *testing.T) {
	env := newEnv(t)
	// A NULL categorical value is not a level: the In-SQL inner-join recode
	// excludes the row, and the naive apply job must exclude it too.
	rows := append(prepRows(),
		row.Row{row.Int(29), row.NullOf(row.TypeString), row.Float(12.5), row.String_("No")})
	if _, err := hadoopfmt.WriteTextTable(env.FS, "/x/prep", prepSchema(), rows, env.Topo.Node(1)); err != nil {
		t.Fatal(err)
	}
	spec := transform.Spec{
		RecodeCols: []string{"gender", "abandoned"},
		CodeCols:   []string{"gender"},
		Coding:     transform.CodingDummy,
	}
	jres, err := Transform(env, "/x/prep", prepSchema(), spec, "/x/out")
	if err != nil {
		t.Fatal(err)
	}
	jrows, err := hadoopfmt.ReadAll(mapred.DirFormat(env.FS, "/x/out", jres.Schema), env.Topo.Node(0))
	if err != nil {
		t.Fatal(err)
	}

	// In-SQL path over the same data.
	eng, err := newSQLEngine(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadTable("t", prepSchema(), rows); err != nil {
		t.Fatal(err)
	}
	out, err := transform.Apply(eng, "t", spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	srows := out.Result.Rows()

	if !jres.Schema.Equal(out.Result.Schema) {
		t.Fatalf("schemas differ: %s vs %s", jres.Schema, out.Result.Schema)
	}
	if len(jrows) != len(srows) {
		t.Fatalf("row counts differ: %d vs %d", len(jrows), len(srows))
	}
	if len(srows) != len(rows)-1 {
		t.Fatalf("transformed rows = %d, want %d (NULL-gender row excluded)", len(srows), len(rows)-1)
	}
	count := map[string]int{}
	for _, r := range jrows {
		count[r.String()]++
	}
	for _, r := range srows {
		count[r.String()]--
	}
	for k, n := range count {
		if n != 0 {
			t.Errorf("multiset mismatch: %s (%+d)", k, n)
		}
	}
}

func TestTransformErrors(t *testing.T) {
	env := newEnv(t)
	if _, err := hadoopfmt.WriteTextTable(env.FS, "/e/prep", prepSchema(), prepRows(), env.Topo.Node(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := Transform(env, "/e/prep", prepSchema(), transform.Spec{}, "/e/out"); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := Transform(env, "/e/prep", prepSchema(), transform.Spec{RecodeCols: []string{"nosuch"}}, "/e/out2"); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := Transform(env, "/e/prep", prepSchema(), transform.Spec{RecodeCols: []string{"age"}}, "/e/out3"); err == nil {
		t.Error("numeric recode column accepted")
	}
	if _, err := Transform(mapred.Cluster{}, "/e/prep", prepSchema(), transform.Spec{RecodeCols: []string{"gender"}}, "/e/out4"); err == nil {
		t.Error("empty cluster accepted")
	}
}

func TestRecodeIDsAreConsecutivePerColumn(t *testing.T) {
	env := newEnv(t)
	// Many values across two columns to stress the single-reducer counter.
	schema := row.MustSchema(
		row.Column{Name: "a", Type: row.TypeString},
		row.Column{Name: "b", Type: row.TypeString},
	)
	var rows []row.Row
	vals := []string{"v1", "v2", "v3", "v4", "v5"}
	for i := 0; i < 40; i++ {
		rows = append(rows, row.Row{
			row.String_(vals[i%5]),
			row.String_(vals[i%3]),
		})
	}
	if _, err := hadoopfmt.WriteTextTable(env.FS, "/c/in", schema, rows, env.Topo.Node(2)); err != nil {
		t.Fatal(err)
	}
	res, err := Transform(env, "/c/in", schema, transform.Spec{RecodeCols: []string{"a", "b"}}, "/c/out")
	if err != nil {
		t.Fatal(err)
	}
	for col, k := range map[string]int{"a": 5, "b": 3} {
		if res.Map.Cardinality(col) != k {
			t.Errorf("cardinality[%s] = %d, want %d", col, res.Map.Cardinality(col), k)
		}
		seen := map[int64]bool{}
		for _, v := range vals[:k] {
			id, ok := res.Map.ID(col, v)
			if !ok {
				t.Errorf("missing %s=%s", col, v)
				continue
			}
			seen[id] = true
		}
		for i := int64(1); i <= int64(k); i++ {
			if !seen[i] {
				t.Errorf("column %s: id %d missing (not consecutive)", col, i)
			}
		}
	}
}

// newSQLEngine builds an In-SQL engine on the env's topology for the
// cross-system consistency test.
func newSQLEngine(env mapred.Cluster) (*sqlengine.Engine, error) {
	eng, err := sqlengine.New(env.Topo, env.Cost, sqlengine.Config{HeadNodeID: 0, WorkerNodeIDs: []int{1, 2, 3, 4}})
	if err != nil {
		return nil, err
	}
	if err := transform.RegisterUDFs(eng); err != nil {
		return nil, err
	}
	return eng, nil
}

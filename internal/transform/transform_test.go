package transform

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"sqlml/internal/cluster"
	"sqlml/internal/row"
	"sqlml/internal/sqlengine"
)

func newEngine(t testing.TB) *sqlengine.Engine {
	t.Helper()
	topo := cluster.NewTopology(5)
	e, err := sqlengine.New(topo, nil, sqlengine.Config{HeadNodeID: 0, WorkerNodeIDs: []int{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := RegisterUDFs(e); err != nil {
		t.Fatal(err)
	}
	return e
}

// figure1Schema/figure1Rows reproduce the paper's Figure 1(a) table.
func figure1Schema() row.Schema {
	return row.MustSchema(
		row.Column{Name: "age", Type: row.TypeInt},
		row.Column{Name: "gender", Type: row.TypeString},
		row.Column{Name: "amount", Type: row.TypeFloat},
		row.Column{Name: "abandoned", Type: row.TypeString},
	)
}

func figure1Rows() []row.Row {
	return []row.Row{
		{row.Int(57), row.String_("F"), row.Float(314.62), row.String_("Yes")},
		{row.Int(40), row.String_("M"), row.Float(40.40), row.String_("Yes")},
		{row.Int(35), row.String_("F"), row.Float(151.17), row.String_("No")},
	}
}

func loadFigure1(t testing.TB, e *sqlengine.Engine) {
	t.Helper()
	if err := e.LoadTable("t", figure1Schema(), figure1Rows()); err != nil {
		t.Fatal(err)
	}
}

// Recode runs phase 2 alone: the join-based recode of cols, with no coding.
func Recode(e *sqlengine.Engine, table, mapTable string, cols []string) (*sqlengine.Result, error) {
	t, err := e.Catalog().Get(table)
	if err != nil {
		return nil, err
	}
	sql, err := RecodeJoinSQL(t.Schema, table, mapTable, Spec{RecodeCols: cols}, nil)
	if err != nil {
		return nil, err
	}
	return e.QueryStream(sql)
}

func TestRecodeMapBasics(t *testing.T) {
	m := NewRecodeMap()
	m.AddColumn("gender", []string{"M", "F", "M"})
	if id, ok := m.ID("gender", "F"); !ok || id != 1 {
		t.Errorf("F -> %d (sorted order should make F=1)", id)
	}
	if id, ok := m.ID("GENDER", "M"); !ok || id != 2 {
		t.Errorf("M -> %d", id)
	}
	if _, ok := m.ID("gender", "X"); ok {
		t.Error("unknown value resolved")
	}
	if _, ok := m.ID("nosuch", "F"); ok {
		t.Error("unknown column resolved")
	}
	if m.Cardinality("gender") != 2 {
		t.Errorf("cardinality = %d", m.Cardinality("gender"))
	}
}

func TestRecodeMapRowsRoundTrip(t *testing.T) {
	m := NewRecodeMap()
	m.AddColumn("gender", []string{"F", "M"})
	m.AddColumn("abandoned", []string{"Yes", "No"})
	back, err := FromRows(m.Rows())
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range m.Columns() {
		if back.Cardinality(col) != m.Cardinality(col) {
			t.Errorf("column %s cardinality changed", col)
		}
	}
	if id, _ := back.ID("abandoned", "No"); id != 1 {
		t.Errorf("sorted assignment: No should be 1, got %d", id)
	}
	if id, _ := back.ID("abandoned", "Yes"); id != 2 {
		t.Errorf("sorted assignment: Yes should be 2, got %d", id)
	}
}

func TestBuildRecodeMapTwoPhase(t *testing.T) {
	e := newEngine(t)
	loadFigure1(t, e)
	m, mapTable, err := BuildRecodeMap(e, "t", []string{"gender", "abandoned"})
	if err != nil {
		t.Fatal(err)
	}
	defer e.DropTable(mapTable)
	if m.Cardinality("gender") != 2 || m.Cardinality("abandoned") != 2 {
		t.Fatalf("cardinalities: %d %d", m.Cardinality("gender"), m.Cardinality("abandoned"))
	}
	// Codes are consecutive from 1 per column.
	for _, col := range []string{"gender", "abandoned"} {
		seen := map[int64]bool{}
		for _, r := range m.Rows() {
			if r[0].AsString() == col {
				seen[r[2].AsInt()] = true
			}
		}
		for i := int64(1); i <= int64(len(seen)); i++ {
			if !seen[i] {
				t.Errorf("column %s missing code %d", col, i)
			}
		}
	}
	// The map table is queryable SQL state.
	res, err := e.Query("SELECT COUNT(*) FROM " + mapTable)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows()[0][0].AsInt() != 4 {
		t.Errorf("map table rows = %v", res.Rows()[0][0])
	}
}

// TestRecodeMatchesFigure1b checks the join-based recode against the
// paper's Figure 1(b): F=1 M=2, and with sorted assignment No=1 Yes=2.
func TestRecodeMatchesFigure1b(t *testing.T) {
	e := newEngine(t)
	loadFigure1(t, e)
	m, mapTable, err := BuildRecodeMap(e, "t", []string{"gender", "abandoned"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Recode(e, "t", mapTable, []string{"gender", "abandoned"})
	if err != nil {
		t.Fatal(err)
	}
	want := "age BIGINT, gender BIGINT, amount DOUBLE, abandoned BIGINT"
	if res.Schema.String() != want {
		t.Fatalf("recoded schema = %s", res.Schema)
	}
	rows := res.Rows()
	sort.Slice(rows, func(i, j int) bool { return rows[i][0].AsInt() > rows[j][0].AsInt() })
	genderF, _ := m.ID("gender", "F")
	genderM, _ := m.ID("gender", "M")
	yes, _ := m.ID("abandoned", "Yes")
	no, _ := m.ID("abandoned", "No")
	expect := []row.Row{
		{row.Int(57), row.Int(genderF), row.Float(314.62), row.Int(yes)},
		{row.Int(40), row.Int(genderM), row.Float(40.40), row.Int(yes)},
		{row.Int(35), row.Int(genderF), row.Float(151.17), row.Int(no)},
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := range expect {
		if !rows[i].Equal(expect[i]) {
			t.Errorf("row %d: got %v want %v", i, rows[i], expect[i])
		}
	}
}

// TestDummyCodingMatchesFigure1c checks dummy coding against Figure 1(c):
// gender with 2 levels expands to two binary columns.
func TestDummyCodingMatchesFigure1c(t *testing.T) {
	e := newEngine(t)
	loadFigure1(t, e)
	out, err := Apply(e, "t", Spec{
		RecodeCols: []string{"gender", "abandoned"},
		CodeCols:   []string{"gender"},
		Coding:     CodingDummy,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.DropTable(out.MapTable)
	res := out.Result
	want := "age BIGINT, gender_1 BIGINT, gender_2 BIGINT, amount DOUBLE, abandoned BIGINT"
	if res.Schema.String() != want {
		t.Fatalf("dummy schema = %s", res.Schema)
	}
	rows := res.Rows()
	sort.Slice(rows, func(i, j int) bool { return rows[i][0].AsInt() > rows[j][0].AsInt() })
	// Figure 1(c): age 57 (F) → female=1 male=0; age 40 (M) → 0,1; 35 (F) → 1,0.
	expect := [][2]int64{{1, 0}, {0, 1}, {1, 0}}
	for i, ex := range expect {
		if rows[i][1].AsInt() != ex[0] || rows[i][2].AsInt() != ex[1] {
			t.Errorf("row %d: gender bits = (%v,%v), want %v", i, rows[i][1], rows[i][2], ex)
		}
	}
}

func TestDummyCodingExactlyOneHot(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(9)
		n, typ, encode, err := dummyCoding(k)
		if err != nil || n != k || typ != row.TypeInt {
			return false
		}
		level := int64(1 + rng.Intn(k))
		vec, err := encode(level)
		if err != nil {
			return false
		}
		ones := 0
		for i, v := range vec {
			if v.AsInt() == 1 {
				ones++
				if int64(i) != level-1 {
					return false
				}
			} else if v.AsInt() != 0 {
				return false
			}
		}
		return ones == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// sameBits reports whether two cells are identical down to the bit pattern
// of a DOUBLE, so a -0.0 against a +0.0 or a rounding drift both fail.
func sameBits(a, b row.Value) bool {
	if a.Null != b.Null || a.Kind != b.Kind {
		return false
	}
	switch {
	case a.Null:
		return true
	case a.Kind == row.TypeFloat:
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	case a.Kind == row.TypeInt:
		return a.AsInt() == b.AsInt()
	}
	return a.String() == b.String()
}

// TestApplyCodingMatchesEncoder holds Apply's recode + coding to the naive
// path's row-at-a-time Encoder, cell for cell and bit for bit, for every
// coding family and cardinality on two prep shapes: a fresh map over a
// materialised prep, and a cached map over a streamed, filtered prep whose
// batches reach the recode join with live selection vectors. The coded
// column g carries NULLs (the inner join drops those rows on both paths),
// and h is recoded but not coded.
func TestApplyCodingMatchesEncoder(t *testing.T) {
	schema := row.MustSchema(
		row.Column{Name: "id", Type: row.TypeInt},
		row.Column{Name: "g", Type: row.TypeString},
		row.Column{Name: "h", Type: row.TypeString},
		row.Column{Name: "x", Type: row.TypeFloat},
	)
	levels := []string{"a", "b", "c", "d", "e"}
	hLevels := []string{"p", "q", "r"}
	const prep = "SELECT id, g, h, x FROM src WHERE x < 30"
	for _, coding := range []Coding{CodingDummy, CodingEffect, CodingOrthogonal} {
		for _, k := range []int{1, 2, 3, 5} {
			for _, cached := range []bool{false, true} {
				name := fmt.Sprintf("%s/k=%d/fresh", coding, k)
				if cached {
					name = fmt.Sprintf("%s/k=%d/cached_stream", coding, k)
				}
				t.Run(name, func(t *testing.T) {
					e := newEngine(t)
					src := make([]row.Row, 400)
					for i := range src {
						g := row.String_(levels[i%k])
						if i%7 == 0 {
							g = row.NullOf(row.TypeString)
						}
						src[i] = row.Row{row.Int(int64(i)), g, row.String_(hLevels[i%3]), row.Float(float64(i * 37 % 100))}
					}
					if err := e.LoadTable("src", schema, src); err != nil {
						t.Fatal(err)
					}
					dense, err := e.Query(prep)
					if err != nil {
						t.Fatal(err)
					}
					input := dense.Rows()
					sort.Slice(input, func(i, j int) bool { return input[i][0].AsInt() < input[j][0].AsInt() })
					var cachedMap *RecodeMap
					if cached {
						cachedMap = NewRecodeMap()
						cachedMap.AddColumn("g", levels[:k])
						cachedMap.AddColumn("h", hLevels)
						stream, err := e.QueryStream(prep)
						if err != nil {
							t.Fatal(err)
						}
						if err := e.RegisterResultStream("prep", stream); err != nil {
							t.Fatal(err)
						}
					} else if err := e.RegisterResult("prep", dense); err != nil {
						t.Fatal(err)
					}

					spec := Spec{RecodeCols: []string{"g", "h"}, CodeCols: []string{"g"}, Coding: coding}
					out, applyErr := Apply(e, "prep", spec, cachedMap)
					if k == 1 && coding != CodingDummy {
						if applyErr == nil {
							t.Fatalf("%s coding with one level accepted", coding)
						}
						return
					}
					if applyErr != nil {
						t.Fatal(applyErr)
					}
					defer e.DropTable(out.MapTable)
					if got := out.Map.Cardinality("g"); got != k {
						t.Fatalf("map holds %d levels of g, want %d", got, k)
					}
					enc, err := NewEncoder(dense.Schema, out.Map, spec.RecodeCols, spec.CodeCols, coding)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := out.Result.Schema.String(), enc.Schema().String(); got != want {
						t.Fatalf("schema = %s, encoder = %s", got, want)
					}
					var want []row.Row
					for _, r := range input {
						w, ok, err := enc.Encode(r)
						if err != nil {
							t.Fatal(err)
						}
						if ok {
							want = append(want, w)
						}
					}
					got := out.Result.Rows()
					sort.Slice(got, func(i, j int) bool { return got[i][0].AsInt() < got[j][0].AsInt() })
					if len(want) == 0 || len(got) != len(want) {
						t.Fatalf("Apply returned %d rows, encoder %d", len(got), len(want))
					}
					for i := range want {
						if len(got[i]) != len(want[i]) {
							t.Fatalf("row %d: Apply %v, encoder %v", i, got[i], want[i])
						}
						for j := range want[i] {
							if !sameBits(got[i][j], want[i][j]) {
								t.Fatalf("row %d col %d: Apply %v, encoder %v", i, j, got[i], want[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestApplyDropsValuesAbsentFromCachedMap shows why the codings need no
// out-of-range check: a value the cached map does not hold finds no match
// in the inner recode join, so its row is dropped and every level that
// reaches a coding lies in 1..k.
func TestApplyDropsValuesAbsentFromCachedMap(t *testing.T) {
	e := newEngine(t)
	schema := row.MustSchema(
		row.Column{Name: "id", Type: row.TypeInt},
		row.Column{Name: "g", Type: row.TypeString},
	)
	if err := e.LoadTable("u", schema, []row.Row{
		{row.Int(1), row.String_("a")}, {row.Int(2), row.String_("z")}, {row.Int(3), row.String_("b")},
	}); err != nil {
		t.Fatal(err)
	}
	cached := NewRecodeMap()
	cached.AddColumn("g", []string{"a", "b"})
	out, err := Apply(e, "u", Spec{RecodeCols: []string{"g"}, CodeCols: []string{"g"}, Coding: CodingEffect}, cached)
	if err != nil {
		t.Fatal(err)
	}
	defer e.DropTable(out.MapTable)
	rows := out.Result.Rows()
	sort.Slice(rows, func(i, j int) bool { return rows[i][0].AsInt() < rows[j][0].AsInt() })
	want := []row.Row{{row.Int(1), row.Int(1)}, {row.Int(3), row.Int(-1)}}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v, want %v (the unmapped z dropped)", rows, want)
	}
	for i := range want {
		if !rows[i].Equal(want[i]) {
			t.Errorf("row %d: got %v want %v", i, rows[i], want[i])
		}
	}
}

func TestEffectCodingReferenceLevel(t *testing.T) {
	n, typ, encode, err := effectCoding(3)
	if err != nil || n != 2 || typ != row.TypeInt {
		t.Fatalf("effectCoding(3): n=%d t=%v err=%v", n, typ, err)
	}
	v1, _ := encode(1)
	v3, _ := encode(3)
	if v1[0].AsInt() != 1 || v1[1].AsInt() != 0 {
		t.Errorf("level 1 = %v", v1)
	}
	if v3[0].AsInt() != -1 || v3[1].AsInt() != -1 {
		t.Errorf("reference level = %v", v3)
	}
	if _, _, _, err := effectCoding(1); err == nil {
		t.Error("effect coding with 1 level accepted")
	}
}

func TestOrthogonalCodingColumnsAreOrthogonal(t *testing.T) {
	for k := 2; k <= 6; k++ {
		n, _, encode, err := orthogonalCoding(k)
		if err != nil || n != k-1 {
			t.Fatalf("orthogonalCoding(%d): %v", k, err)
		}
		// Build the K x (K-1) matrix and check column dot products vanish.
		mat := make([][]float64, k)
		for lvl := 1; lvl <= k; lvl++ {
			vec, err := encode(int64(lvl))
			if err != nil {
				t.Fatal(err)
			}
			mat[lvl-1] = make([]float64, n)
			for j, v := range vec {
				mat[lvl-1][j] = v.AsFloat()
			}
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				dot := 0.0
				for i := 0; i < k; i++ {
					dot += mat[i][a] * mat[i][b]
				}
				if dot != 0 {
					t.Errorf("k=%d: contrasts %d,%d not orthogonal (dot=%v)", k, a, b, dot)
				}
			}
			// Each contrast must also sum to zero across levels.
			sum := 0.0
			for i := 0; i < k; i++ {
				sum += mat[i][a]
			}
			if sum != 0 {
				t.Errorf("k=%d: contrast %d sums to %v", k, a, sum)
			}
		}
	}
}

func TestApplyFullPipeline(t *testing.T) {
	e := newEngine(t)
	loadFigure1(t, e)
	out, err := Apply(e, "t", Spec{
		RecodeCols: []string{"gender", "abandoned"},
		CodeCols:   []string{"gender"},
		Coding:     CodingDummy,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.DropTable(out.MapTable)
	if out.Result.NumRows() != 3 {
		t.Errorf("rows = %d", out.Result.NumRows())
	}
	if got := out.Result.Schema.String(); !strings.Contains(got, "gender_1 BIGINT, gender_2 BIGINT") {
		t.Errorf("schema = %s", got)
	}
	if out.Map.Cardinality("abandoned") != 2 {
		t.Error("map missing abandoned column")
	}
}

func TestApplyWithCachedMapSkipsPhaseOne(t *testing.T) {
	e := newEngine(t)
	loadFigure1(t, e)
	cached := NewRecodeMap()
	cached.AddColumn("gender", []string{"F", "M"})
	cached.AddColumn("abandoned", []string{"Yes", "No"})
	out, err := Apply(e, "t", Spec{RecodeCols: []string{"gender", "abandoned"}}, cached)
	if err != nil {
		t.Fatal(err)
	}
	if out.Map != cached {
		t.Error("Apply should use the cached map")
	}
	if out.Result.NumRows() != 3 {
		t.Errorf("rows = %d", out.Result.NumRows())
	}
}

func TestApplyErrors(t *testing.T) {
	e := newEngine(t)
	loadFigure1(t, e)
	if _, err := Apply(e, "t", Spec{}, nil); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := Apply(e, "t", Spec{RecodeCols: []string{"gender"}, CodeCols: []string{"abandoned"}, Coding: CodingDummy}, nil); err == nil {
		t.Error("coded column outside RecodeCols accepted")
	}
	if _, err := Apply(e, "t", Spec{RecodeCols: []string{"nosuch"}}, nil); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := Apply(e, "t", Spec{RecodeCols: []string{"age"}}, nil); err == nil {
		t.Error("recoding a BIGINT column accepted")
	}
}

func TestRecodeAppliesOnFilteredData(t *testing.T) {
	// The paper notes recoding must run on *filtered* data; values filtered
	// out must not appear in the map.
	e := newEngine(t)
	schema := row.MustSchema(
		row.Column{Name: "country", Type: row.TypeString},
		row.Column{Name: "gender", Type: row.TypeString},
	)
	if err := e.LoadTable("u", schema, []row.Row{
		{row.String_("USA"), row.String_("F")},
		{row.String_("USA"), row.String_("M")},
		{row.String_("DE"), row.String_("X")},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run("CREATE TABLE filtered AS SELECT gender FROM u WHERE country = 'USA'"); err != nil {
		t.Fatal(err)
	}
	m, mapTable, err := BuildRecodeMap(e, "filtered", []string{"gender"})
	if err != nil {
		t.Fatal(err)
	}
	defer e.DropTable(mapTable)
	if m.Cardinality("gender") != 2 {
		t.Errorf("filtered cardinality = %d (X must not be mapped)", m.Cardinality("gender"))
	}
	if _, ok := m.ID("gender", "X"); ok {
		t.Error("filtered-out value appears in the map")
	}
}

func TestDistinctValuesSingleScanForAllColumns(t *testing.T) {
	// The UDF must emit pairs for every listed column in one pass.
	e := newEngine(t)
	loadFigure1(t, e)
	res, err := e.Query("SELECT DISTINCT colname, colval FROM TABLE(distinct_values(t, 'gender,abandoned'))")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 4 {
		t.Fatalf("distinct pairs = %d, want 4", res.NumRows())
	}
	cols := map[string]int{}
	for _, r := range res.Rows() {
		cols[r[0].AsString()]++
	}
	if cols["gender"] != 2 || cols["abandoned"] != 2 {
		t.Errorf("pairs per column: %v", cols)
	}
}

func TestNullCategoricalValues(t *testing.T) {
	e := newEngine(t)
	schema := row.MustSchema(row.Column{Name: "g", Type: row.TypeString})
	if err := e.LoadTable("n", schema, []row.Row{
		{row.String_("a")}, {row.NullOf(row.TypeString)}, {row.String_("b")},
	}); err != nil {
		t.Fatal(err)
	}
	m, mapTable, err := BuildRecodeMap(e, "n", []string{"g"})
	if err != nil {
		t.Fatal(err)
	}
	defer e.DropTable(mapTable)
	if m.Cardinality("g") != 2 {
		t.Errorf("NULL must not be recoded: cardinality = %d", m.Cardinality("g"))
	}
	// Phase 2 is an inner join against the map, which has no NULL entry:
	// the NULL-valued row is excluded from the recoded table.
	res, err := Recode(e, "n", mapTable, []string{"g"})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows after recode = %d, want 2 (NULL row excluded)", len(rows))
	}
	for _, r := range rows {
		if r[0].Null {
			t.Errorf("NULL code survived the join recode: %v", r)
		}
	}
}

func TestRecodeJoinSQLShape(t *testing.T) {
	sql, err := RecodeJoinSQL(figure1Schema(), "t", "m", Spec{RecodeCols: []string{"gender", "abandoned"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The generated query must be parseable and reference the map twice —
	// the paper's "FROM T, M as Mg, M as Ma" shape.
	if strings.Count(sql, "m AS __m") != 2 {
		t.Errorf("map not joined twice: %s", sql)
	}
	if _, err := sqlengine.ParseSelect(sql); err != nil {
		t.Errorf("generated SQL does not parse: %v\n%s", err, sql)
	}
}

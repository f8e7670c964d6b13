package rewriter

import (
	"strings"
	"testing"

	"sqlml/internal/cluster"
	"sqlml/internal/row"
	"sqlml/internal/sqlengine"
	"sqlml/internal/transform"
)

// newEngine loads the paper's carts/users schemas (plus the extra columns
// §5.2's example uses: carts.nitems, carts.year).
func newEngine(t testing.TB) *sqlengine.Engine {
	t.Helper()
	topo := cluster.NewTopology(5)
	e, err := sqlengine.New(topo, nil, sqlengine.Config{HeadNodeID: 0, WorkerNodeIDs: []int{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	users := row.MustSchema(
		row.Column{Name: "userid", Type: row.TypeInt},
		row.Column{Name: "age", Type: row.TypeInt},
		row.Column{Name: "gender", Type: row.TypeString},
		row.Column{Name: "country", Type: row.TypeString},
	)
	carts := row.MustSchema(
		row.Column{Name: "cartid", Type: row.TypeInt},
		row.Column{Name: "userid", Type: row.TypeInt},
		row.Column{Name: "amount", Type: row.TypeFloat},
		row.Column{Name: "nitems", Type: row.TypeInt},
		row.Column{Name: "year", Type: row.TypeInt},
		row.Column{Name: "abandoned", Type: row.TypeString},
	)
	if err := e.LoadTable("users", users, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadTable("carts", carts, nil); err != nil {
		t.Fatal(err)
	}
	return e
}

// paperQuery is the §1 example preparation query.
const paperQuery = `
	SELECT U.age, U.gender, C.amount, C.abandoned
	FROM carts C, users U
	WHERE C.userid=U.userid AND U.country='USA'`

// paperSubsetQuery is §5.1's reusable follow-up query.
const paperSubsetQuery = `
	SELECT U.age, C.amount, C.abandoned
	FROM carts C, users U
	WHERE C.userid=U.userid AND U.country='USA' AND U.gender = 'F'`

// paperMapReuseQuery is §5.2's map-reusable follow-up query.
const paperMapReuseQuery = `
	SELECT U.age, U.gender, C.amount, C.nItems, C.abandoned
	FROM carts C, users U
	WHERE C.userid=U.userid AND U.country='USA' AND C.year = 2014`

func analyze(t *testing.T, e *sqlengine.Engine, sql string) *QueryInfo {
	t.Helper()
	info, err := AnalyzeSQL(e, sql)
	if err != nil {
		t.Fatalf("AnalyzeSQL(%s): %v", sql, err)
	}
	return info
}

func TestAnalyzePaperQuery(t *testing.T) {
	e := newEngine(t)
	info := analyze(t, e, paperQuery)
	if len(info.Tables) != 2 || info.Tables[0] != "carts" || info.Tables[1] != "users" {
		t.Errorf("tables = %v", info.Tables)
	}
	if len(info.JoinConds) != 1 || info.JoinConds[0] != "carts.userid = users.userid" {
		t.Errorf("join conds = %v", info.JoinConds)
	}
	if len(info.PredAll) != 1 || info.PredAll[0] != "(users.country = 'USA')" {
		t.Errorf("preds = %v", info.PredAll)
	}
	if len(info.Projected) != 4 || info.Projected[1].Source != "users.gender" {
		t.Errorf("projected = %v", info.Projected)
	}
}

func TestAnalyzeNormalizesAliases(t *testing.T) {
	e := newEngine(t)
	a := analyze(t, e, paperQuery)
	b := analyze(t, e, `
		SELECT uu.age, uu.gender, cc.amount, cc.abandoned
		FROM users uu, carts cc
		WHERE uu.userid = cc.userid AND uu.country = 'USA'`)
	if !SameJoinStructure(a, b) {
		t.Error("alias and FROM-order differences should normalize away")
	}
	if a.PredAll[0] != b.PredAll[0] {
		t.Errorf("predicates differ: %v vs %v", a.PredAll, b.PredAll)
	}
}

// Integer and float division select different rows, so their predicates
// must not canonicalize to one string (a cached age / 2 = 10 answer would
// otherwise be served for age / 2.0 = 10).
func TestAnalyzeKeepsFloatLiteralsApart(t *testing.T) {
	e := newEngine(t)
	i := analyze(t, e, "SELECT age FROM users WHERE age / 2 = 10")
	f := analyze(t, e, "SELECT age FROM users WHERE age / 2.0 = 10")
	if len(i.PredAll) != 1 || len(f.PredAll) != 1 || i.PredAll[0] == f.PredAll[0] {
		t.Errorf("integer and float division canonicalize alike: %v vs %v", i.PredAll, f.PredAll)
	}
}

func TestAnalyzeResolvesUnqualifiedColumns(t *testing.T) {
	e := newEngine(t)
	info := analyze(t, e, "SELECT age FROM users WHERE country = 'USA'")
	if info.Projected[0].Source != "users.age" {
		t.Errorf("source = %s", info.Projected[0].Source)
	}
	// carts.userid vs users.userid is ambiguous unqualified.
	if _, err := AnalyzeSQL(e, "SELECT userid FROM users u, carts c WHERE u.userid = c.userid"); err == nil {
		t.Error("ambiguous unqualified column accepted")
	}
}

func TestAnalyzeRejectsNonSPJ(t *testing.T) {
	e := newEngine(t)
	for _, sql := range []string{
		"SELECT DISTINCT age FROM users",
		"SELECT age FROM users ORDER BY age",
		"SELECT age FROM users LIMIT 5",
		"SELECT COUNT(*) FROM users",
		"SELECT age FROM users u, users v WHERE u.userid = v.userid", // self join
		"SELECT * FROM users",
		"SELECT age + 1 FROM users",
	} {
		if _, err := AnalyzeSQL(e, sql); err == nil {
			t.Errorf("%q should not be analyzable", sql)
		}
	}
}

func TestImplies(t *testing.T) {
	mk := func(op string, v row.Value) Pred {
		return Pred{Column: "users.age", Op: op, Value: &sqlengine.Lit{V: v}, Simple: true, Raw: "raw-" + op + v.String()}
	}
	cases := []struct {
		p, q Pred
		want bool
	}{
		// The paper's own example: a < 18 is stronger than a <= 20.
		{mk("<", row.Int(18)), mk("<=", row.Int(20)), true},
		{mk("<=", row.Int(20)), mk("<", row.Int(18)), false},
		{mk("<", row.Int(18)), mk("<", row.Int(18)), true},
		{mk("<", row.Int(21)), mk("<=", row.Int(20)), false},
		{mk("<=", row.Int(20)), mk("<", row.Int(21)), true},
		{mk("=", row.Int(5)), mk("<", row.Int(10)), true},
		{mk("=", row.Int(15)), mk("<", row.Int(10)), false},
		{mk("=", row.Int(5)), mk("=", row.Int(5)), true},
		{mk("=", row.Int(5)), mk("<>", row.Int(6)), true},
		{mk("=", row.Int(5)), mk("<>", row.Int(5)), false},
		{mk(">", row.Int(10)), mk(">=", row.Int(10)), true},
		{mk(">=", row.Int(10)), mk(">", row.Int(10)), false},
		{mk(">=", row.Int(11)), mk(">", row.Int(10)), true},
		{mk(">", row.Int(10)), mk("<>", row.Int(10)), true},
		{mk("<>", row.Int(10)), mk("<>", row.Int(10)), true},
		{mk("<>", row.Int(10)), mk("<>", row.Int(11)), false},
		// Cross numeric types.
		{mk("<", row.Float(17.5)), mk("<=", row.Int(20)), true},
	}
	for i, c := range cases {
		if got := Implies(c.p, c.q); got != c.want {
			t.Errorf("case %d: Implies(%s %s, %s %s) = %v, want %v",
				i, c.p.Op, c.p.Value, c.q.Op, c.q.Value, got, c.want)
		}
	}
	// Different columns never imply.
	other := Pred{Column: "users.x", Op: "<", Value: &sqlengine.Lit{V: row.Int(1)}, Simple: true}
	if Implies(mk("<", row.Int(0)), other) {
		t.Error("implication across columns")
	}
	// Identical raw strings imply even for complex predicates.
	c1 := Pred{Raw: "(users.age IN (1, 2))"}
	c2 := Pred{Raw: "(users.age IN (1, 2))"}
	if !Implies(c1, c2) {
		t.Error("identical complex predicates should imply")
	}
}

// TestImpliesRefusesInexactMixedLiterals pins the BIGINT/DOUBLE rounding
// holes: BIGINT 2^53+1 and DOUBLE 2^53 compare equal as literals, but on the
// row age = 2^53 the engine finds age < 9007199254740993 TRUE and
// age < 9007199254740992.0 FALSE, so no implication may be proved. A Pred
// carries no column type, and against a DOUBLE column two BIGINT literals
// round as well: on amount = 2^53 the engine finds amount <=
// 9007199254740992 TRUE and amount < 9007199254740993 FALSE.
func TestImpliesRefusesInexactMixedLiterals(t *testing.T) {
	mk := func(op string, v row.Value) Pred {
		return Pred{Column: "users.age", Op: op, Value: &sqlengine.Lit{V: v}, Simple: true, Raw: "raw-" + op + v.String()}
	}
	in := func(vs ...row.Value) Pred {
		return Pred{Column: "users.age", In: vs, Raw: "raw-in" + row.Row(vs).String()}
	}
	const big = 1 << 53
	cases := []struct {
		name string
		p, q Pred
		want bool
	}{
		{"lt", mk("<", row.Int(big+1)), mk("<", row.Float(big)), false},
		{"gt mirrored", mk(">", row.Int(-big-1)), mk(">", row.Float(-big)), false},
		// age IN (2^53.0) holds for the BIGINTs 2^53 and 2^53+1 alike.
		{"in-list to eq", in(row.Float(big)), mk("=", row.Int(big+1)), false},
		{"in-list subset", in(row.Float(big)), in(row.Int(big + 1)), false},
		// Same-kind BIGINT pairs round too, against a DOUBLE column.
		{"le to lt", mk("<=", row.Int(big)), mk("<", row.Int(big+1)), false},
		{"ge to gt mirrored", mk(">=", row.Int(-big)), mk(">", row.Int(-big-1)), false},
		{"in-list to lt", in(row.Int(big)), mk("<", row.Int(big+1)), false},
		// Inside ±2^53 the proofs stay, mixed or not.
		{"exact lt", mk("<", row.Int(big-1)), mk("<", row.Float(big-1)), true},
		{"exact in", in(row.Float(7)), mk("=", row.Int(7)), true},
		{"exact le to lt", mk("<=", row.Int(big-2)), mk("<", row.Int(big-1)), true},
		{"exact in-list to lt", in(row.Int(big - 2)), mk("<", row.Int(big-1)), true},
	}
	for _, c := range cases {
		if got := Implies(c.p, c.q); got != c.want {
			t.Errorf("%s: Implies = %v, want %v", c.name, got, c.want)
		}
	}
	if ImpliesAll([]Pred{mk("<", row.Int(big+1))}, []Pred{mk("<", row.Float(big))}) {
		t.Error("ImpliesAll proved age < 2^53+1 implies age < 2^53.0")
	}
}

func TestMatchFullResultPaperExample(t *testing.T) {
	e := newEngine(t)
	cached := analyze(t, e, paperQuery)
	next := analyze(t, e, paperSubsetQuery)
	m := transform.NewRecodeMap()
	m.AddColumn("gender", []string{"F", "M"})
	m.AddColumn("abandoned", []string{"Yes", "No"})
	spec := transform.Spec{RecodeCols: []string{"gender", "abandoned"}}
	match, ok := MatchFullResult(cached, next, spec, m)
	if !ok {
		t.Fatal("the paper's §5.1 example must match")
	}
	sql := match.RewriteOnCache("cached_t")
	// Expected shape: SELECT age, amount, abandoned FROM T WHERE gender = <code of F>.
	if !strings.Contains(sql, "SELECT age, amount, abandoned FROM cached_t") {
		t.Errorf("rewritten sql = %s", sql)
	}
	fID, _ := m.ID("gender", "F")
	if !strings.Contains(sql, "gender = 1") || fID != 1 {
		t.Errorf("categorical literal not translated through the map: %s", sql)
	}
	if _, err := sqlengine.ParseSelect(sql); err != nil {
		t.Errorf("rewritten sql does not parse: %v", err)
	}
}

func TestMatchFullResultRejectsPaper52Example(t *testing.T) {
	e := newEngine(t)
	cached := analyze(t, e, paperQuery)
	next := analyze(t, e, paperMapReuseQuery)
	spec := transform.Spec{RecodeCols: []string{"gender", "abandoned"}}
	if _, ok := MatchFullResult(cached, next, spec, nil); ok {
		t.Error("§5.2's example projects nitems, absent from the cache — must not match full result")
	}
}

func TestMatchFullResultIdenticalQueryWithCoding(t *testing.T) {
	e := newEngine(t)
	cached := analyze(t, e, paperQuery)
	next := analyze(t, e, paperQuery)
	m := transform.NewRecodeMap()
	m.AddColumn("gender", []string{"F", "M"})
	m.AddColumn("abandoned", []string{"Yes", "No"})
	spec := transform.Spec{
		RecodeCols: []string{"gender", "abandoned"},
		CodeCols:   []string{"gender"},
		Coding:     transform.CodingDummy,
	}
	match, ok := MatchFullResult(cached, next, spec, m)
	if !ok {
		t.Fatal("identical query must match")
	}
	sql := match.RewriteOnCache("cached_t")
	if !strings.Contains(sql, "gender_1, gender_2") {
		t.Errorf("coded column not expanded: %s", sql)
	}
}

func TestMatchFullResultConditionViolations(t *testing.T) {
	e := newEngine(t)
	cached := analyze(t, e, paperQuery)
	spec := transform.Spec{RecodeCols: []string{"gender", "abandoned"}}
	m := transform.NewRecodeMap()
	m.AddColumn("gender", []string{"F", "M"})
	m.AddColumn("abandoned", []string{"Yes", "No"})

	cases := map[string]string{
		"different table set": `SELECT u.age FROM users u WHERE u.country = 'USA'`,
		"missing cached predicate": `
			SELECT U.age, C.amount FROM carts C, users U
			WHERE C.userid = U.userid`,
		"extra predicate on unprojected column": `
			SELECT U.age, C.amount FROM carts C, users U
			WHERE C.userid = U.userid AND U.country = 'USA' AND C.year = 2014`,
		"projection outside cache": `
			SELECT U.age, C.nitems FROM carts C, users U
			WHERE C.userid = U.userid AND U.country = 'USA'`,
		"range predicate on recoded column": `
			SELECT U.age, C.amount FROM carts C, users U
			WHERE C.userid = U.userid AND U.country = 'USA' AND U.gender > 'E'`,
	}
	for name, sql := range cases {
		next := analyze(t, e, sql)
		if _, ok := MatchFullResult(cached, next, spec, m); ok {
			t.Errorf("%s: should not match", name)
		}
	}
}

func TestMatchFullResultUnknownCategoricalValue(t *testing.T) {
	e := newEngine(t)
	cached := analyze(t, e, paperQuery)
	next := analyze(t, e, `
		SELECT U.age, C.amount FROM carts C, users U
		WHERE C.userid = U.userid AND U.country = 'USA' AND U.gender = 'X'`)
	m := transform.NewRecodeMap()
	m.AddColumn("gender", []string{"F", "M"})
	m.AddColumn("abandoned", []string{"Yes", "No"})
	spec := transform.Spec{RecodeCols: []string{"gender", "abandoned"}}
	match, ok := MatchFullResult(cached, next, spec, m)
	if !ok {
		t.Fatal("unknown value should still match (selects nothing)")
	}
	if !strings.Contains(match.RewriteOnCache("c"), "1 = 0") {
		t.Errorf("unknown value should render a false predicate: %v", match.ExtraPreds)
	}
}

func TestMatchRecodeMapPaperExample(t *testing.T) {
	e := newEngine(t)
	cached := analyze(t, e, paperQuery)
	next := analyze(t, e, paperMapReuseQuery)
	if !MatchRecodeMap(cached, next, []string{"gender", "abandoned"}, []string{"gender", "abandoned"}) {
		t.Error("the paper's §5.2 example must reuse the recode map")
	}
}

func TestMatchRecodeMapStrongerPredicate(t *testing.T) {
	e := newEngine(t)
	cachedQ := `SELECT u.gender FROM users u WHERE u.age <= 20`
	strongerQ := `SELECT u.gender FROM users u WHERE u.age < 18`
	weakerQ := `SELECT u.gender FROM users u WHERE u.age <= 25`
	cached := analyze(t, e, cachedQ)
	if !MatchRecodeMap(cached, analyze(t, e, strongerQ), []string{"gender"}, []string{"gender"}) {
		t.Error("a < 18 is logically stronger than a <= 20: must match")
	}
	if MatchRecodeMap(cached, analyze(t, e, weakerQ), []string{"gender"}, []string{"gender"}) {
		t.Error("a <= 25 is weaker than a <= 20: must not match")
	}
}

func TestMatchRecodeMapConditionViolations(t *testing.T) {
	e := newEngine(t)
	cached := analyze(t, e, paperQuery)
	// Dropped predicate on country.
	next := analyze(t, e, `
		SELECT U.gender FROM carts C, users U WHERE C.userid = U.userid`)
	if MatchRecodeMap(cached, next, []string{"gender", "abandoned"}, []string{"gender"}) {
		t.Error("missing predicate on cached column must not match")
	}
	// Needs a column the map does not cover.
	next2 := analyze(t, e, paperMapReuseQuery)
	if MatchRecodeMap(cached, next2, []string{"gender"}, []string{"gender", "abandoned"}) {
		t.Error("categorical column outside the map must not match")
	}
	// Different join structure.
	next3 := analyze(t, e, `SELECT u.gender FROM users u WHERE u.country = 'USA'`)
	if MatchRecodeMap(cached, next3, []string{"gender", "abandoned"}, []string{"gender"}) {
		t.Error("different table set must not match")
	}
}

func TestInListImplication(t *testing.T) {
	e := newEngine(t)
	mk := func(sql string) *QueryInfo { return analyze(t, e, sql) }
	cached := mk(`SELECT u.gender FROM users u WHERE u.country IN ('USA', 'Germany', 'Greece')`)
	subset := mk(`SELECT u.gender FROM users u WHERE u.country IN ('USA', 'Greece')`)
	superset := mk(`SELECT u.gender FROM users u WHERE u.country IN ('USA', 'Germany', 'Greece', 'Japan')`)
	equality := mk(`SELECT u.gender FROM users u WHERE u.country = 'USA'`)
	outside := mk(`SELECT u.gender FROM users u WHERE u.country = 'Brazil'`)

	if !MatchRecodeMap(cached, subset, []string{"gender"}, []string{"gender"}) {
		t.Error("IN subset must imply IN superset")
	}
	if MatchRecodeMap(cached, superset, []string{"gender"}, []string{"gender"}) {
		t.Error("IN superset must not imply IN subset")
	}
	if !MatchRecodeMap(cached, equality, []string{"gender"}, []string{"gender"}) {
		t.Error("equality on a listed value must imply the IN")
	}
	if MatchRecodeMap(cached, outside, []string{"gender"}, []string{"gender"}) {
		t.Error("equality outside the list must not imply the IN")
	}
}

func TestInListImpliesRangePredicate(t *testing.T) {
	e := newEngine(t)
	cached := analyze(t, e, `SELECT u.gender FROM users u WHERE u.age <= 30`)
	inQuery := analyze(t, e, `SELECT u.gender FROM users u WHERE u.age IN (18, 21, 25)`)
	if !MatchRecodeMap(cached, inQuery, []string{"gender"}, []string{"gender"}) {
		t.Error("age IN (18,21,25) implies age <= 30")
	}
	tooBig := analyze(t, e, `SELECT u.gender FROM users u WHERE u.age IN (18, 45)`)
	if MatchRecodeMap(cached, tooBig, []string{"gender"}, []string{"gender"}) {
		t.Error("age IN (18,45) must not imply age <= 30")
	}
}

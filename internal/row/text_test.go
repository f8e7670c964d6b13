package row

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func testSchema() Schema {
	return MustSchema(
		Column{"id", TypeInt},
		Column{"amount", TypeFloat},
		Column{"name", TypeString},
		Column{"flag", TypeBool},
	)
}

func TestEncodeDecodeLineSimple(t *testing.T) {
	s := testSchema()
	r := Row{Int(7), Float(2.5), String_("alice"), Bool(true)}
	line := EncodeLine(r)
	if line != "7,2.5,alice,true" {
		t.Fatalf("EncodeLine = %q", line)
	}
	back, err := DecodeLine(line, s)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(r) {
		t.Errorf("round trip: got %v want %v", back, r)
	}
}

func TestEncodeDecodeQuoting(t *testing.T) {
	s := MustSchema(Column{"a", TypeString}, Column{"b", TypeString})
	cases := []Row{
		{String_("has,comma"), String_("plain")},
		{String_(`has"quote`), String_("x")},
		{String_("line\nbreak"), String_("y")},
		{String_(""), String_("nonempty")}, // empty string vs NULL
		{NullOf(TypeString), String_("z")},
		{String_(`",",`), String_(`""`)},
	}
	for _, r := range cases {
		line := EncodeLine(r)
		back, err := DecodeLine(line, s)
		if err != nil {
			t.Fatalf("decode %q: %v", line, err)
		}
		if !back.Equal(r) {
			t.Errorf("round trip of %v via %q: got %v", r, line, back)
		}
	}
}

func TestDecodeLineErrors(t *testing.T) {
	s := testSchema()
	for _, line := range []string{
		"1,2.5,x",            // too few fields
		"1,2.5,x,true,extra", // too many fields
		"abc,2.5,x,true",     // bad int
		`1,2.5,"unterminated,true`,
		`1,2.5,"x"y,true`, // garbage after quote
	} {
		if _, err := DecodeLine(line, s); err == nil {
			t.Errorf("DecodeLine(%q) should fail", line)
		}
	}
}

func TestNullVsEmptyStringDistinguished(t *testing.T) {
	s := MustSchema(Column{"a", TypeString})
	null := EncodeLine(Row{NullOf(TypeString)})
	empty := EncodeLine(Row{String_("")})
	if null == empty {
		t.Fatalf("NULL and empty string encode identically: %q", null)
	}
	rn, err := DecodeLine(null, s)
	if err != nil || !rn[0].Null {
		t.Errorf("null round trip: %v %v", rn, err)
	}
	re, err := DecodeLine(empty, s)
	if err != nil || re[0].Null || re[0].AsString() != "" {
		t.Errorf("empty string round trip: %v %v", re, err)
	}
}

func TestAppendLineMatchesEncodeLine(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := Row{genValue(rng), genValue(rng), genValue(rng)}
		return string(AppendLine(nil, r)) == EncodeLine(r)+"\n"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Numeric extremes: AppendLine formats numbers itself, so every strconv
	// rendering Value.String can produce is pinned here.
	extremes := Row{
		Float(0), Float(math.Copysign(0, -1)), Float(math.MaxFloat64), Float(-math.MaxFloat64),
		Float(math.SmallestNonzeroFloat64), Float(1e21), Float(1e20), Float(123.45),
		Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)),
		Int(math.MinInt64), Int(math.MaxInt64), Int(0), Int(-1), Int(100),
		Bool(true), Bool(false), NullOf(TypeFloat),
	}
	if got, want := string(AppendLine(nil, extremes)), EncodeLine(extremes)+"\n"; got != want {
		t.Errorf("extremes:\n got %q\nwant %q", got, want)
	}
}

// The DFS export writes one AppendLine per row into a reused buffer; with
// the buffer warm that is no allocation at all (it was two per row while
// numbers went through Value.String).
func TestAppendLineAllocatesNothingWarm(t *testing.T) {
	r := Row{Int(37), Int(1), Int(0), Float(123.45), Int(2), String_("yes"), String_("a,b"), Bool(true), NullOf(TypeInt)}
	buf := AppendLine(nil, r)
	if n := testing.AllocsPerRun(200, func() { buf = AppendLine(buf[:0], r) }); n != 0 {
		t.Errorf("AppendLine into a warm buffer: %v allocs per row, want 0", n)
	}
}

func TestTextRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cols := make([]Column, 1+rng.Intn(5))
		r := make(Row, len(cols))
		for i := range cols {
			v := genValue(rng)
			// Avoid NaN/Inf: the text format targets finite SQL data.
			if v.Kind == TypeFloat && !v.Null && (math.IsNaN(v.AsFloat()) || math.IsInf(v.AsFloat(), 0)) {
				v = Float(0)
			}
			cols[i] = Column{Name: "c" + string(rune('a'+i)), Type: v.Kind}
			r[i] = v
		}
		s := MustSchema(cols...)
		back, err := DecodeLine(EncodeLine(r), s)
		if err != nil {
			return false
		}
		return back.Equal(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestSplitLineFieldCount(t *testing.T) {
	fields, _, err := SplitLine("a,b,c")
	if err != nil || len(fields) != 3 {
		t.Errorf("SplitLine(a,b,c): %v %v", fields, err)
	}
	fields, _, err = SplitLine("")
	if err != nil || len(fields) != 1 {
		t.Errorf("SplitLine empty: %v %v", fields, err)
	}
	fields, _, err = SplitLine("a,,c")
	if err != nil || len(fields) != 3 || fields[1] != "" {
		t.Errorf("SplitLine with empty middle: %v %v", fields, err)
	}
	fields, _, err = SplitLine("a,b,")
	if err != nil || len(fields) != 3 || fields[2] != "" {
		t.Errorf("SplitLine with trailing sep: %v %v", fields, err)
	}
}

func TestEncodedLineNeverContainsBareNewline(t *testing.T) {
	r := Row{String_("a\nb\\c"), String_("c")}
	line := EncodeLine(r)
	if strings.ContainsRune(line, '\n') {
		t.Fatalf("encoded line contains a physical newline: %q", line)
	}
	back, err := DecodeLine(line, MustSchema(Column{"a", TypeString}, Column{"b", TypeString}))
	if err != nil || back[0].AsString() != "a\nb\\c" {
		t.Errorf("newline round trip: %v %v", back, err)
	}
	if !strings.Contains(line, `"`) {
		t.Error("newline field must be quoted")
	}
}

package row

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTypeStringParseRoundTrip(t *testing.T) {
	for _, tt := range []Type{TypeInt, TypeFloat, TypeString, TypeBool} {
		got, err := ParseType(tt.String())
		if err != nil {
			t.Fatalf("ParseType(%q): %v", tt.String(), err)
		}
		if got != tt {
			t.Errorf("round trip of %v produced %v", tt, got)
		}
	}
}

func TestParseTypeAliases(t *testing.T) {
	cases := map[string]Type{
		"int": TypeInt, "INTEGER": TypeInt, "float": TypeFloat, "real": TypeFloat,
		"text": TypeString, "string": TypeString, "bool": TypeBool,
	}
	for in, want := range cases {
		got, err := ParseType(in)
		if err != nil {
			t.Fatalf("ParseType(%q): %v", in, err)
		}
		if got != want {
			t.Errorf("ParseType(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := ParseType("blob"); err == nil {
		t.Error("ParseType(blob) should fail")
	}
}

func TestValueAccessors(t *testing.T) {
	if Int(7).AsInt() != 7 {
		t.Error("Int accessor")
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Error("Float accessor")
	}
	if Int(3).AsFloat() != 3.0 {
		t.Error("Int widens to float")
	}
	if String_("x").AsString() != "x" {
		t.Error("String accessor")
	}
	if !Bool(true).AsBool() {
		t.Error("Bool accessor")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("null int", func() { NullOf(TypeInt).AsInt() })
	mustPanic("wrong kind", func() { String_("a").AsInt() })
	mustPanic("null float", func() { NullOf(TypeFloat).AsFloat() })
	mustPanic("string as float", func() { String_("1").AsFloat() })
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Int(2), Float(2.0), true}, // numeric cross-type equality
		{Float(2.5), Float(2.5), true},
		{String_("a"), String_("a"), true},
		{String_("a"), String_("b"), false},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{NullOf(TypeInt), NullOf(TypeInt), true},
		{NullOf(TypeInt), Int(0), false},
		{String_("1"), Int(1), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Float(1.5), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{String_("a"), String_("b"), -1},
		{Bool(false), Bool(true), -1},
		{NullOf(TypeInt), Int(-100), -1}, // NULL sorts first
		{Int(-100), NullOf(TypeInt), 1},
		{NullOf(TypeString), NullOf(TypeString), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCoerce(t *testing.T) {
	v, err := String_("42").Coerce(TypeInt)
	if err != nil || v.AsInt() != 42 {
		t.Errorf("string->int: %v %v", v, err)
	}
	v, err = String_("2.5").Coerce(TypeFloat)
	if err != nil || v.AsFloat() != 2.5 {
		t.Errorf("string->float: %v %v", v, err)
	}
	v, err = Int(3).Coerce(TypeFloat)
	if err != nil || v.AsFloat() != 3 {
		t.Errorf("int->float: %v %v", v, err)
	}
	v, err = Float(3.9).Coerce(TypeInt)
	if err != nil || v.AsInt() != 3 {
		t.Errorf("float->int truncates: %v %v", v, err)
	}
	v, err = Bool(true).Coerce(TypeString)
	if err != nil || v.AsString() != "true" {
		t.Errorf("bool->string: %v %v", v, err)
	}
	v, err = String_("yes").Coerce(TypeBool)
	if err != nil || !v.AsBool() {
		t.Errorf("string->bool: %v %v", v, err)
	}
	if _, err := String_("abc").Coerce(TypeInt); err == nil {
		t.Error("bad int coercion should fail")
	}
	v, err = NullOf(TypeString).Coerce(TypeInt)
	if err != nil || !v.Null || v.Kind != TypeInt {
		t.Errorf("null coercion keeps null: %v %v", v, err)
	}
}

// genValue produces a random non-degenerate value for property tests.
func genValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Int(r.Int63() - r.Int63())
	case 1:
		return Float(r.NormFloat64() * 1e6)
	case 2:
		const alphabet = "abcXYZ,\"\n'0 é"
		n := r.Intn(12)
		b := make([]rune, n)
		runes := []rune(alphabet)
		for i := range b {
			b[i] = runes[r.Intn(len(runes))]
		}
		return String_(string(b))
	case 3:
		return Bool(r.Intn(2) == 0)
	default:
		return NullOf(Type(r.Intn(4)))
	}
}

func TestCompareIsAntisymmetricAndReflexive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genValue(r), genValue(r)
		if a.Compare(a) != 0 || b.Compare(b) != 0 {
			return false
		}
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCompareZeroMeansEqualForComparableKinds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genValue(r), genValue(r)
		if a.Compare(b) != 0 {
			return true
		}
		// NULLs of different kinds sort together but are not Equal; they
		// never meet in practice because columns are homogeneously typed.
		if a.Null && b.Null && a.Kind != b.Kind {
			return true
		}
		return a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRowCloneIndependence(t *testing.T) {
	r := Row{Int(1), String_("x")}
	c := r.Clone()
	c[0] = Int(2)
	if r[0].AsInt() != 1 {
		t.Error("Clone must not alias the original")
	}
	if !reflect.DeepEqual(r.Clone(), r) {
		t.Error("Clone should be deep-equal to original")
	}
}

func TestRowConforms(t *testing.T) {
	s := MustSchema(Column{"a", TypeInt}, Column{"b", TypeString})
	if err := (Row{Int(1), String_("x")}).Conforms(s); err != nil {
		t.Errorf("conforming row rejected: %v", err)
	}
	if err := (Row{Int(1)}).Conforms(s); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := (Row{String_("x"), String_("y")}).Conforms(s); err == nil {
		t.Error("type mismatch accepted")
	}
	if err := (Row{NullOf(TypeInt), NullOf(TypeString)}).Conforms(s); err != nil {
		t.Errorf("nulls should conform: %v", err)
	}
}

// TestDoubleRule pins PostgreSQL's DOUBLE semantics on Value: -0 equals
// 0, NaN equals NaN whatever its payload, and NaN sorts above +Inf.
func TestDoubleRule(t *testing.T) {
	negZero := Float(math.Copysign(0, -1))
	nan1 := Float(math.Float64frombits(0x7ff8000000000001))
	nan2 := Float(math.Float64frombits(0xfff8000000000123))
	for _, c := range []struct {
		a, b Value
		cmp  int
	}{
		{negZero, Float(0), 0},
		{negZero, Int(0), 0},
		{nan1, nan2, 0},
		{nan1, Float(math.Inf(1)), 1},
		{Float(math.Inf(-1)), nan2, -1},
		{Int(math.MaxInt64), nan1, -1},
		{Float(1), negZero, 1},
	} {
		if got := c.a.Compare(c.b); got != c.cmp {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.cmp)
		}
		if got := c.b.Compare(c.a); got != -c.cmp {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.b, c.a, got, -c.cmp)
		}
		if got := c.a.Equal(c.b); got != (c.cmp == 0) {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.a, c.b, got, c.cmp == 0)
		}
	}
}

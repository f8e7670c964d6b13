// Package row defines the value model shared by every substrate in the
// repository: typed scalar values, rows, schemas, and a text serialization
// compatible with the DFS text-table format.
//
// The model deliberately mirrors what a big SQL system exchanges with an ML
// system in the paper: INT/BIGINT, DOUBLE, VARCHAR and BOOLEAN columns, with
// NULL as a first-class state of any value.
package row

import (
	"fmt"
	"strconv"
	"strings"
)

// Type enumerates the scalar column types supported by the engines.
type Type int

// Supported column types.
const (
	TypeInt Type = iota
	TypeFloat
	TypeString
	TypeBool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "BIGINT"
	case TypeFloat:
		return "DOUBLE"
	case TypeString:
		return "VARCHAR"
	case TypeBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ParseType parses a SQL-ish type name as produced by Type.String.
// It accepts a few common aliases (INT, INTEGER, FLOAT, TEXT, STRING).
func ParseType(s string) (Type, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "BIGINT", "INT", "INTEGER":
		return TypeInt, nil
	case "DOUBLE", "FLOAT", "REAL":
		return TypeFloat, nil
	case "VARCHAR", "STRING", "TEXT", "CHAR":
		return TypeString, nil
	case "BOOLEAN", "BOOL":
		return TypeBool, nil
	default:
		return 0, fmt.Errorf("row: unknown type %q", s)
	}
}

// Value is a single typed scalar. The zero Value is a NULL of type BIGINT.
//
// Value is a small tagged union rather than an interface so that rows can be
// streamed, hashed and compared without per-value heap allocation.
type Value struct {
	Kind Type
	Null bool

	i int64
	f float64
	s string
	b bool
}

// Int returns a non-null BIGINT value.
func Int(v int64) Value { return Value{Kind: TypeInt, i: v} }

// Float returns a non-null DOUBLE value.
func Float(v float64) Value { return Value{Kind: TypeFloat, f: v} }

// String_ returns a non-null VARCHAR value. The trailing underscore avoids
// colliding with the fmt.Stringer method on Value.
func String_(v string) Value { return Value{Kind: TypeString, s: v} }

// Bool returns a non-null BOOLEAN value.
func Bool(v bool) Value { return Value{Kind: TypeBool, b: v} }

// Null returns a NULL value of the given type.
func NullOf(t Type) Value { return Value{Kind: t, Null: true} }

// AsInt returns the BIGINT payload. It panics if the value is not a
// non-null BIGINT; use Kind/Null to check first.
func (v Value) AsInt() int64 {
	v.mustBe(TypeInt)
	return v.i
}

// AsFloat returns the DOUBLE payload, widening BIGINT values.
func (v Value) AsFloat() float64 {
	if v.Null {
		panic("row: AsFloat on NULL")
	}
	switch v.Kind {
	case TypeFloat:
		return v.f
	case TypeInt:
		return float64(v.i)
	default:
		panic(fmt.Sprintf("row: AsFloat on %s", v.Kind))
	}
}

// AsString returns the VARCHAR payload.
func (v Value) AsString() string {
	v.mustBe(TypeString)
	return v.s
}

// AsBool returns the BOOLEAN payload.
func (v Value) AsBool() bool {
	v.mustBe(TypeBool)
	return v.b
}

func (v Value) mustBe(t Type) {
	if v.Null {
		panic(fmt.Sprintf("row: access of NULL as %s", t))
	}
	if v.Kind != t {
		panic(fmt.Sprintf("row: access of %s as %s", v.Kind, t))
	}
}

// Numeric reports whether the value's type is BIGINT or DOUBLE.
func (v Value) Numeric() bool { return v.Kind == TypeInt || v.Kind == TypeFloat }

// String renders the value for debugging and for the text table format.
// NULLs render as an empty string; see AppendLine for the quoted form used
// on disk.
func (v Value) String() string {
	if v.Null {
		return ""
	}
	switch v.Kind {
	case TypeInt:
		return strconv.FormatInt(v.i, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case TypeString:
		return v.s
	case TypeBool:
		if v.b {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("<%d>", int(v.Kind))
	}
}

// Equal reports deep equality of two values. NULLs of the same type are
// equal to each other (this is the grouping/DISTINCT notion of equality,
// not the SQL three-valued one; predicates handle NULL separately).
// DOUBLEs follow PostgreSQL: -0 equals 0, and NaN equals NaN.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		// Allow numeric cross-type equality so that joins between BIGINT
		// and DOUBLE columns behave as users expect.
		if v.Numeric() && o.Numeric() && !v.Null && !o.Null {
			return v.AsFloat() == o.AsFloat()
		}
		return false
	}
	if v.Null || o.Null {
		return v.Null && o.Null
	}
	switch v.Kind {
	case TypeInt:
		return v.i == o.i
	case TypeFloat:
		return cmpFloat(v.f, o.f) == 0
	case TypeString:
		return v.s == o.s
	case TypeBool:
		return v.b == o.b
	}
	return false
}

// Compare orders two values: -1 if v<o, 0 if equal, +1 if v>o.
// NULL sorts before every non-NULL. Cross numeric types compare by value,
// and DOUBLEs by PostgreSQL's total order (cmpFloat).
// Comparing incomparable kinds (e.g. VARCHAR with BIGINT) orders by Kind so
// that sorting remains total; predicates reject such comparisons earlier.
func (v Value) Compare(o Value) int {
	if v.Null || o.Null {
		switch {
		case v.Null && o.Null:
			return 0
		case v.Null:
			return -1
		default:
			return 1
		}
	}
	if v.Kind != o.Kind {
		if v.Numeric() && o.Numeric() {
			return cmpFloat(v.AsFloat(), o.AsFloat())
		}
		return cmpInt(int64(v.Kind), int64(o.Kind))
	}
	switch v.Kind {
	case TypeInt:
		return cmpInt(v.i, o.i)
	case TypeFloat:
		return cmpFloat(v.f, o.f)
	case TypeString:
		return strings.Compare(v.s, o.s)
	case TypeBool:
		switch {
		case v.b == o.b:
			return 0
		case !v.b:
			return -1
		default:
			return 1
		}
	}
	return 0
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpFloat orders DOUBLEs as PostgreSQL does — -0 equals 0, NaN equals
// NaN, and NaN sorts above every number — so the order is total.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	// At least one is NaN, the only value unequal to itself.
	return nanRank(a) - nanRank(b)
}

func nanRank(f float64) int {
	if f != f {
		return 1
	}
	return 0
}

// boolSpellings are the strings that coerce to BOOLEAN, case-folded.
var boolSpellings = map[string]bool{"true": true, "t": true, "1": true, "yes": true, "false": false, "f": false, "0": false, "no": false}

// Coerce converts the value to the target type when a safe conversion
// exists (numeric widening/narrowing, string parse). It returns an error
// when no conversion applies.
func (v Value) Coerce(t Type) (Value, error) {
	if v.Null {
		return NullOf(t), nil
	}
	if v.Kind == t {
		return v, nil
	}
	switch t {
	case TypeFloat:
		if v.Kind == TypeInt {
			return Float(float64(v.i)), nil
		}
		if v.Kind == TypeString {
			f, err := strconv.ParseFloat(v.s, 64)
			if err != nil {
				return Value{}, fmt.Errorf("row: cannot coerce %q to DOUBLE: %w", v.s, err)
			}
			return Float(f), nil
		}
	case TypeInt:
		if v.Kind == TypeFloat {
			return Int(int64(v.f)), nil
		}
		if v.Kind == TypeString {
			i, err := strconv.ParseInt(v.s, 10, 64)
			if err != nil {
				return Value{}, fmt.Errorf("row: cannot coerce %q to BIGINT: %w", v.s, err)
			}
			return Int(i), nil
		}
	case TypeString:
		return String_(v.String()), nil
	case TypeBool:
		if b, ok := boolSpellings[strings.ToLower(v.s)]; ok && v.Kind == TypeString {
			return Bool(b), nil
		}
	}
	return Value{}, fmt.Errorf("row: cannot coerce %s to %s", v.Kind, t)
}

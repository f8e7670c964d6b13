package sqlengine

import (
	"bytes"
	"fmt"
	"math"
	"unicode/utf8"

	"sqlml/internal/row"
)

// scalarBody is ScalarUDF.Fn's signature.
type scalarBody = func(args []*row.Vector, pos []int32, out *row.Vector) error

// builtinScalars is the vocabulary preparation queries routinely need:
// string basics (UPPER, LOWER, LENGTH, TRIM, SUBSTR, CONCAT), NULL
// handling (COALESCE), math (ABS, ROUND, FLOOR, CEIL, SQRT, LN) and
// ordering helpers (LEAST, GREATEST). Each body follows ScalarUDF.Fn's
// contract; a NULL argument gives a NULL result except in COALESCE.
// Strings are measured and sliced in characters (UTF-8 code points).
func builtinScalars() []*ScalarUDF {
	stringIn := func(ret row.Type) func([]row.Type) (row.Type, error) {
		return func(args []row.Type) (row.Type, error) {
			if len(args) != 1 || args[0] != row.TypeString {
				return 0, fmt.Errorf("expected one VARCHAR argument")
			}
			return ret, nil
		}
	}
	numericIn := func(n int) func([]row.Type) (row.Type, error) {
		return func(args []row.Type) (row.Type, error) {
			if len(args) != n {
				return 0, fmt.Errorf("expected %d arguments", n)
			}
			for _, t := range args {
				if !numericType(t) {
					return 0, fmt.Errorf("expected numeric arguments")
				}
			}
			return row.TypeFloat, nil
		}
	}
	exact := func(f func(float64) float64) func(float64) (float64, error) {
		return func(x float64) (float64, error) { return f(x), nil }
	}
	return []*ScalarUDF{
		{Name: "upper", ReturnType: stringIn(row.TypeString), Fn: mapString(bytes.ToUpper)},
		{Name: "lower", ReturnType: stringIn(row.TypeString), Fn: mapString(bytes.ToLower)},
		{Name: "trim", ReturnType: stringIn(row.TypeString), Fn: mapString(bytes.TrimSpace)},
		{
			Name:       "length",
			ReturnType: stringIn(row.TypeInt),
			Fn: func(args []*row.Vector, pos []int32, out *row.Vector) error {
				for _, pp := range pos {
					p := int(pp)
					if args[0].Null(p) {
						out.SetNull(p)
						continue
					}
					out.Ints[p] = int64(utf8.RuneCount(args[0].Bytes(p)))
				}
				return nil
			},
		},
		{
			Name: "abs",
			ReturnType: func(args []row.Type) (row.Type, error) {
				if len(args) != 1 || !numericType(args[0]) {
					return 0, fmt.Errorf("expected one numeric argument")
				}
				return args[0], nil
			},
			Fn: func(args []*row.Vector, pos []int32, out *row.Vector) error {
				a := args[0]
				for _, pp := range pos {
					p := int(pp)
					switch {
					case a.Null(p):
						out.SetNull(p)
					case out.Type() == row.TypeFloat:
						out.Floats[p] = math.Abs(a.Floats[p])
					case a.Ints[p] == math.MinInt64:
						return fmt.Errorf("BIGINT overflow")
					case a.Ints[p] < 0:
						out.Ints[p] = -a.Ints[p]
					default:
						out.Ints[p] = a.Ints[p]
					}
				}
				return nil
			},
		},
		{
			Name: "coalesce",
			ReturnType: func(args []row.Type) (row.Type, error) {
				if len(args) == 0 {
					return 0, fmt.Errorf("COALESCE needs at least one argument")
				}
				t := args[0]
				for _, a := range args[1:] {
					if a != t {
						if numericType(a) && numericType(t) {
							t = row.TypeFloat
							continue
						}
						return 0, fmt.Errorf("COALESCE arguments mix %s and %s", t, a)
					}
				}
				return t, nil
			},
			Fn: func(args []*row.Vector, pos []int32, out *row.Vector) error {
				for _, pp := range pos {
					p := int(pp)
					var src *row.Vector // the first non-NULL argument; nil: NULL
					for _, a := range args {
						if !a.Null(p) {
							src = a
							break
						}
					}
					putCell(out, src, p)
				}
				return nil
			},
		},
		{Name: "round", ReturnType: numericIn(1), Fn: mapFloat(exact(math.Round))},
		{Name: "floor", ReturnType: numericIn(1), Fn: mapFloat(exact(math.Floor))},
		{Name: "ceil", ReturnType: numericIn(1), Fn: mapFloat(exact(math.Ceil))},
		{
			Name:       "sqrt",
			ReturnType: numericIn(1),
			Fn: mapFloat(func(x float64) (float64, error) {
				if x < 0 {
					return 0, fmt.Errorf("SQRT of negative value %v", x)
				}
				return math.Sqrt(x), nil
			}),
		},
		{
			Name:       "ln",
			ReturnType: numericIn(1),
			Fn: mapFloat(func(x float64) (float64, error) {
				if x <= 0 {
					return 0, fmt.Errorf("LN of non-positive value %v", x)
				}
				return math.Log(x), nil
			}),
		},
		{
			Name: "substr",
			ReturnType: func(args []row.Type) (row.Type, error) {
				if len(args) != 3 || args[0] != row.TypeString || args[1] != row.TypeInt || args[2] != row.TypeInt {
					return 0, fmt.Errorf("usage: SUBSTR(str, start, length) with 1-based start")
				}
				return row.TypeString, nil
			},
			Fn: func(args []*row.Vector, pos []int32, out *row.Vector) error {
				str, start, length := args[0], args[1], args[2]
				for _, pp := range pos {
					p := int(pp)
					out.PadTo(p)
					if str.Null(p) || start.Null(p) || length.Null(p) {
						out.AppendNull()
						continue
					}
					s, from := str.Bytes(p), 0 // a start below 1 reads from the first character
					if st := start.Ints[p]; st > 1 {
						from = skipRunes(s, st-1)
					}
					out.AppendBytes(s[from : from+skipRunes(s[from:], length.Ints[p])])
				}
				return nil
			},
		},
		{
			Name: "concat",
			ReturnType: func(args []row.Type) (row.Type, error) {
				if len(args) < 2 {
					return 0, fmt.Errorf("CONCAT needs at least two arguments")
				}
				return row.TypeString, nil
			},
			Fn: func(args []*row.Vector, pos []int32, out *row.Vector) error {
				var buf []byte
			cells:
				for _, pp := range pos {
					p := int(pp)
					out.PadTo(p)
					buf = buf[:0]
					for _, a := range args {
						if a.Null(p) {
							out.AppendNull()
							continue cells
						}
						buf = append(buf, a.ValueAt(p).String()...)
					}
					out.AppendBytes(buf)
				}
				return nil
			},
		},
		// LEAST and GREATEST order DOUBLEs by the engine's one rule: NaN
		// sorts above every number. A tie returns the first argument.
		{Name: "least", ReturnType: numericIn(2), Fn: pickFloat(-1)},
		{Name: "greatest", ReturnType: numericIn(2), Fn: pickFloat(1)},
	}
}

// mapString is the body of a VARCHAR → VARCHAR function.
func mapString(f func([]byte) []byte) scalarBody {
	return func(args []*row.Vector, pos []int32, out *row.Vector) error {
		for _, pp := range pos {
			p := int(pp)
			out.PadTo(p)
			if args[0].Null(p) {
				out.AppendNull()
				continue
			}
			out.AppendBytes(f(args[0].Bytes(p)))
		}
		return nil
	}
}

// mapFloat is the body of a numeric → DOUBLE function.
func mapFloat(f func(float64) (float64, error)) scalarBody {
	return func(args []*row.Vector, pos []int32, out *row.Vector) error {
		for _, pp := range pos {
			p := int(pp)
			if args[0].Null(p) {
				out.SetNull(p)
				continue
			}
			x, err := f(cellFloat(args[0], p))
			if err != nil {
				return err
			}
			out.Floats[p] = x
		}
		return nil
	}
}

// pickFloat returns the second argument where it compares as sign against
// the first (-1: LEAST, +1: GREATEST), else the first, as DOUBLE.
func pickFloat(sign int) scalarBody {
	return func(args []*row.Vector, pos []int32, out *row.Vector) error {
		for _, pp := range pos {
			p := int(pp)
			if args[0].Null(p) || args[1].Null(p) {
				out.SetNull(p)
				continue
			}
			x, y := cellFloat(args[0], p), cellFloat(args[1], p)
			if cmpOrdered(y, x) == sign {
				x = y
			}
			out.Floats[p] = x
		}
		return nil
	}
}

// skipRunes returns the byte length of s's first n characters (all of s
// when it has fewer; 0 when n <= 0).
func skipRunes(s []byte, n int64) int {
	i := 0
	for ; n > 0 && i < len(s); n-- {
		_, w := utf8.DecodeRune(s[i:])
		i += w
	}
	return i
}

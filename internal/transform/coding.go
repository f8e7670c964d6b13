package transform

import (
	"fmt"
	"strconv"
	"strings"

	"sqlml/internal/row"
	"sqlml/internal/sqlengine"
)

// A codingFn describes how one recoded categorical column with k levels
// expands into derived columns: it returns the number of derived columns,
// their type, and the encoder mapping a level (1..k) to its vector.
type codingFn func(k int) (n int, t row.Type, encode func(level int64) (row.Row, error), err error)

// dummyCoding is the paper's §2.2 dummy coding (one-hot / one-of-K): a
// column with K levels becomes K binary columns, level i setting the i-th.
func dummyCoding(k int) (int, row.Type, func(int64) (row.Row, error), error) {
	if k < 1 {
		return 0, 0, nil, fmt.Errorf("dummy coding needs at least 1 level, got %d", k)
	}
	encode := func(level int64) (row.Row, error) {
		if level < 1 || level > int64(k) {
			return nil, fmt.Errorf("level %d outside 1..%d", level, k)
		}
		out := make(row.Row, k)
		for i := range out {
			out[i] = row.Int(0)
		}
		out[level-1] = row.Int(1)
		return out, nil
	}
	return k, row.TypeInt, encode, nil
}

// effectCoding produces K-1 columns: level i < K sets the i-th column to 1;
// the reference level K sets every column to -1.
func effectCoding(k int) (int, row.Type, func(int64) (row.Row, error), error) {
	if k < 2 {
		return 0, 0, nil, fmt.Errorf("effect coding needs at least 2 levels, got %d", k)
	}
	encode := func(level int64) (row.Row, error) {
		if level < 1 || level > int64(k) {
			return nil, fmt.Errorf("level %d outside 1..%d", level, k)
		}
		out := make(row.Row, k-1)
		for i := range out {
			if level == int64(k) {
				out[i] = row.Int(-1)
			} else if int64(i) == level-1 {
				out[i] = row.Int(1)
			} else {
				out[i] = row.Int(0)
			}
		}
		return out, nil
	}
	return k - 1, row.TypeInt, encode, nil
}

// orthogonalCoding produces K-1 (difference/Helmert) contrast columns:
// contrast j compares level j+1 against the mean of levels 1..j, so the
// columns are pairwise orthogonal.
func orthogonalCoding(k int) (int, row.Type, func(int64) (row.Row, error), error) {
	if k < 2 {
		return 0, 0, nil, fmt.Errorf("orthogonal coding needs at least 2 levels, got %d", k)
	}
	encode := func(level int64) (row.Row, error) {
		if level < 1 || level > int64(k) {
			return nil, fmt.Errorf("level %d outside 1..%d", level, k)
		}
		out := make(row.Row, k-1)
		for j := 1; j < k; j++ {
			switch {
			case level <= int64(j):
				out[j-1] = row.Float(-1)
			case level == int64(j)+1:
				out[j-1] = row.Float(float64(j))
			default:
				out[j-1] = row.Float(0)
			}
		}
		return out, nil
	}
	return k - 1, row.TypeFloat, encode, nil
}

// codingSpec is the parsed form of a 'col:K,col:K' argument.
type codingSpec struct {
	col string
	k   int
}

func parseCodingSpec(arg row.Value) ([]codingSpec, error) {
	if arg.Null || arg.Kind != row.TypeString {
		return nil, fmt.Errorf("expected a 'col:K,col:K' string argument")
	}
	var out []codingSpec
	for _, part := range strings.Split(arg.AsString(), ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		bits := strings.Split(part, ":")
		if len(bits) != 2 {
			return nil, fmt.Errorf("bad coding spec %q (want col:K)", part)
		}
		k, err := strconv.Atoi(bits[1])
		if err != nil || k < 1 {
			return nil, fmt.Errorf("bad cardinality in %q", part)
		}
		out = append(out, codingSpec{col: strings.ToLower(strings.TrimSpace(bits[0])), k: k})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty coding spec")
	}
	return out, nil
}

// SpecArg renders the 'col:K,...' argument for the coding UDFs from a
// recode map's cardinalities — the paper notes dummy coding "takes in the
// number of distinct values for each categorical variable (already obtained
// during recoding phase)".
func SpecArg(m *RecodeMap, cols []string) (string, error) {
	parts := make([]string, len(cols))
	for i, c := range cols {
		k := m.Cardinality(c)
		if k == 0 {
			return "", fmt.Errorf("transform: column %q not in recode map", c)
		}
		parts[i] = fmt.Sprintf("%s:%d", strings.ToLower(c), k)
	}
	return strings.Join(parts, ","), nil
}

// codingUDF builds the parallel table UDF for one coding family. The UDF
// scans each partition once, replacing every spec'd (recoded BIGINT) column
// in place with its derived columns col_1..col_n.
func codingUDF(name string, fn codingFn) *sqlengine.TableUDF {
	return &sqlengine.TableUDF{
		Name:         name,
		PerPartition: true,
		OutSchema: func(in row.Schema, args []row.Value) (row.Schema, error) {
			if len(args) != 1 {
				return row.Schema{}, fmt.Errorf("usage: %s(T, 'col:K,col:K')", name)
			}
			specs, err := parseCodingSpec(args[0])
			if err != nil {
				return row.Schema{}, err
			}
			byCol := make(map[string]codingSpec, len(specs))
			for _, s := range specs {
				c, ok := in.Col(s.col)
				if !ok {
					return row.Schema{}, fmt.Errorf("unknown column %q", s.col)
				}
				if c.Type != row.TypeInt {
					return row.Schema{}, fmt.Errorf("column %q is %s; %s applies to recoded BIGINT columns", s.col, c.Type, name)
				}
				byCol[s.col] = s
			}
			var cols []row.Column
			for _, c := range in.Cols {
				s, ok := byCol[strings.ToLower(c.Name)]
				if !ok {
					cols = append(cols, c)
					continue
				}
				n, t, _, err := fn(s.k)
				if err != nil {
					return row.Schema{}, err
				}
				for i := 1; i <= n; i++ {
					cols = append(cols, row.Column{Name: fmt.Sprintf("%s_%d", c.Name, i), Type: t})
				}
			}
			return row.NewSchema(cols...)
		},
		Fn: func(ctx *sqlengine.UDFContext, in sqlengine.Iterator, args []row.Value, emit func(row.Row) error) error {
			specs, err := parseCodingSpec(args[0])
			if err != nil {
				return err
			}
			type colPlan struct {
				n      int
				t      row.Type
				encode func(int64) (row.Row, error)
			}
			plans := make(map[int]colPlan) // input column index → plan
			for _, s := range specs {
				idx := ctx.InSchema.ColIndex(s.col)
				if idx < 0 {
					return fmt.Errorf("unknown column %q", s.col)
				}
				n, t, encode, err := fn(s.k)
				if err != nil {
					return err
				}
				plans[idx] = colPlan{n: n, t: t, encode: encode}
			}
			// Columnar fast path: when the partition input is a thin cursor
			// over a columnar pipeline, expand whole batches — passthrough
			// columns copy cell-by-cell without boxing into Values, and each
			// level's coding row is computed once and reused. The emit
			// boundary stays row-at-a-time so the engine's per-row Conforms
			// check still guards every output row.
			if cb, ok := sqlengine.AsColBatchSource(in); ok {
				var outTypes []row.Type
				for i, c := range ctx.InSchema.Cols {
					if plan, coded := plans[i]; coded {
						for j := 0; j < plan.n; j++ {
							outTypes = append(outTypes, plan.t)
						}
						continue
					}
					outTypes = append(outTypes, c.Type)
				}
				out := row.NewColBatch(outTypes)
				levels := make(map[int][]row.Row)
				var buf []row.Row
				for {
					b, ok, err := cb.NextColBatch()
					if err != nil {
						return err
					}
					if !ok {
						return nil
					}
					k := b.Len()
					if k == 0 {
						continue
					}
					out.Reset(outTypes)
					oc := 0
					for i := 0; i < b.NumCols(); i++ {
						col := b.Col(i)
						plan, coded := plans[i]
						if !coded {
							ov := out.Col(oc)
							oc++
							for si := 0; si < k; si++ {
								ov.AppendFrom(col, b.SelPos(si))
							}
							continue
						}
						base := oc
						oc += plan.n
						for si := 0; si < k; si++ {
							p := b.SelPos(si)
							if col.Null(p) {
								for j := 0; j < plan.n; j++ {
									out.Col(base + j).AppendNull()
								}
								continue
							}
							level := col.Ints[p]
							var lr row.Row
							if cache := levels[i]; level >= 1 && int64(len(cache)) >= level && cache[level-1] != nil {
								lr = cache[level-1]
							} else {
								lr, err = plan.encode(level)
								if err != nil {
									return fmt.Errorf("column %q: %w", ctx.InSchema.Cols[i].Name, err)
								}
								if level >= 1 {
									for int64(len(cache)) < level {
										cache = append(cache, nil)
									}
									cache[level-1] = lr
									levels[i] = cache
								}
							}
							for j := 0; j < plan.n; j++ {
								out.Col(base + j).AppendValue(lr[j])
							}
						}
					}
					out.SetFullLen(k)
					buf = out.Rows(buf[:0])
					for _, r := range buf {
						if err := emit(r); err != nil {
							return err
						}
					}
				}
			}
			for {
				r, ok, err := in.Next()
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
				var out row.Row
				for i, v := range r {
					plan, coded := plans[i]
					if !coded {
						out = append(out, v)
						continue
					}
					if v.Null {
						for j := 0; j < plan.n; j++ {
							out = append(out, row.NullOf(plan.t))
						}
						continue
					}
					vec, err := plan.encode(v.AsInt())
					if err != nil {
						return fmt.Errorf("column %q: %w", ctx.InSchema.Cols[i].Name, err)
					}
					out = append(out, vec...)
				}
				if err := emit(out); err != nil {
					return err
				}
			}
		},
	}
}

// DummyCode runs the dummy_code UDF over a catalog table with the given
// 'col:K,...' spec and returns the expanded result (streaming — the spec
// string is self-contained, so the pipeline needs nothing from the
// catalog once planned).
func DummyCode(e *sqlengine.Engine, table, spec string) (*sqlengine.Result, error) {
	return e.QueryStream(fmt.Sprintf("SELECT * FROM TABLE(dummy_code(%s, '%s'))", table, spec))
}

// CodedWidth returns how many derived columns a coding family produces for
// a categorical column with k levels.
func CodedWidth(c Coding, k int) (int, error) {
	switch c {
	case CodingDummy:
		n, _, _, err := dummyCoding(k)
		return n, err
	case CodingEffect:
		n, _, _, err := effectCoding(k)
		return n, err
	case CodingOrthogonal:
		n, _, _, err := orthogonalCoding(k)
		return n, err
	default:
		return 1, nil
	}
}

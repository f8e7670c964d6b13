package transform

import (
	"fmt"
	"strings"

	"sqlml/internal/row"
)

// Encoder applies the recode + coding transformation one row at a time,
// outside the SQL engine. It is the apply step of the naive baseline's
// Jaql-style tool (package jaql) and the row reference Apply's generated
// recode + coding query is compared against.
type Encoder struct {
	in         row.Schema
	out        row.Schema
	m          *RecodeMap
	recodeCols map[int]string // input column index → column name
	plans      map[int]encoderPlan
}

type encoderPlan struct {
	n      int
	t      row.Type
	encode func(int64) (row.Row, error)
}

// NewEncoder builds an encoder for rows of schema in: recodeCols are
// recoded through m; codeCols (a subset) are then expanded with the coding.
func NewEncoder(in row.Schema, m *RecodeMap, recodeCols, codeCols []string, coding Coding) (*Encoder, error) {
	e := &Encoder{in: in, m: m, recodeCols: make(map[int]string), plans: make(map[int]encoderPlan)}
	for _, c := range recodeCols {
		idx := in.ColIndex(c)
		if idx < 0 {
			return nil, fmt.Errorf("transform: unknown column %q", c)
		}
		if in.Cols[idx].Type != row.TypeString {
			return nil, fmt.Errorf("transform: column %q is %s; recoding applies to VARCHAR", c, in.Cols[idx].Type)
		}
		e.recodeCols[idx] = strings.ToLower(c)
	}
	var fn codingFn
	switch coding {
	case CodingNone:
	case CodingDummy:
		fn = dummyCoding
	case CodingEffect:
		fn = effectCoding
	case CodingOrthogonal:
		fn = orthogonalCoding
	default:
		return nil, fmt.Errorf("transform: unknown coding %d", coding)
	}
	coded := make(map[string]bool)
	for _, c := range codeCols {
		if fn == nil {
			return nil, fmt.Errorf("transform: codeCols given with CodingNone")
		}
		idx := in.ColIndex(c)
		if idx < 0 {
			return nil, fmt.Errorf("transform: unknown column %q", c)
		}
		if _, ok := e.recodeCols[idx]; !ok {
			return nil, fmt.Errorf("transform: coded column %q is not recoded", c)
		}
		k := m.Cardinality(c)
		if k == 0 {
			return nil, fmt.Errorf("transform: column %q not in recode map", c)
		}
		n, t, enc, err := fn(k)
		if err != nil {
			return nil, err
		}
		e.plans[idx] = encoderPlan{n: n, t: t, encode: enc}
		coded[strings.ToLower(c)] = true
	}

	var cols []row.Column
	for i, c := range in.Cols {
		if plan, ok := e.plans[i]; ok {
			for j := 1; j <= plan.n; j++ {
				cols = append(cols, row.Column{Name: fmt.Sprintf("%s_%d", c.Name, j), Type: plan.t})
			}
			continue
		}
		if _, ok := e.recodeCols[i]; ok {
			cols = append(cols, row.Column{Name: c.Name, Type: row.TypeInt})
			continue
		}
		cols = append(cols, c)
	}
	out, err := row.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	e.out = out
	return e, nil
}

// Schema returns the encoder's output schema.
func (e *Encoder) Schema() row.Schema { return e.out }

// Encode transforms one input row. ok is false, with no error, for a row
// whose value in a recoded column is NULL: phase 2 of the In-SQL recode is
// an inner join against the map, which has no NULL entry, so such a row is
// excluded from the transformed table and the naive path must drop it too.
func (e *Encoder) Encode(r row.Row) (out row.Row, ok bool, err error) {
	if len(r) != e.in.Len() {
		return nil, false, fmt.Errorf("transform: row arity %d, schema arity %d", len(r), e.in.Len())
	}
	for i, v := range r {
		col, isCat := e.recodeCols[i]
		if !isCat {
			out = append(out, v)
			continue
		}
		if v.Null {
			return nil, false, nil
		}
		id, known := e.m.ID(col, v.AsString())
		if !known {
			return nil, false, fmt.Errorf("transform: value %q of column %q not in recode map", v.AsString(), col)
		}
		plan, isCoded := e.plans[i]
		if !isCoded {
			out = append(out, row.Int(id))
			continue
		}
		vec, err := plan.encode(id)
		if err != nil {
			return nil, false, fmt.Errorf("transform: column %q: %w", col, err)
		}
		out = append(out, vec...)
	}
	return out, true, nil
}

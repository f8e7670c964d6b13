package transform

import (
	"fmt"

	"sqlml/internal/sqlengine"
)

// Coding selects the post-recode coding family applied to categorical
// features.
type Coding int

// Supported codings. CodingNone leaves columns recoded but unexpanded.
const (
	CodingNone Coding = iota
	CodingDummy
	CodingEffect
	CodingOrthogonal
)

// String returns the coding's name.
func (c Coding) String() string {
	switch c {
	case CodingDummy:
		return "dummy"
	case CodingEffect:
		return "effect"
	case CodingOrthogonal:
		return "orthogonal"
	default:
		return "none"
	}
}

// ScalingKind selects the numeric feature-scaling family.
type ScalingKind int

// Supported scalings.
const (
	ScalingNone ScalingKind = iota
	ScalingStandard
	ScalingMinMax
)

// String returns the scaling's name.
func (s ScalingKind) String() string {
	switch s {
	case ScalingStandard:
		return "standard"
	case ScalingMinMax:
		return "minmax"
	default:
		return "none"
	}
}

// Spec describes the In-SQL transformation of one prepared table.
type Spec struct {
	// RecodeCols are the categorical (VARCHAR) columns to recode. NULL is
	// not a level: it gets no recode ID, and because phase 2 is an inner
	// join against the map, a row that is NULL in any of these columns is
	// excluded from the output — on the naive path (Encoder.Encode) too.
	RecodeCols []string
	// CodeCols is the subset of RecodeCols to expand after recoding (e.g.
	// the paper dummy-codes gender but leaves the label recoded only).
	CodeCols []string
	// Coding selects the expansion family for CodeCols.
	Coding Coding
	// ScaleCols are numeric columns to scale after the categorical steps.
	ScaleCols []string
	// Scaling selects the scaling family for ScaleCols.
	Scaling ScalingKind
}

// Output is the outcome of a full transformation.
type Output struct {
	// Result is the transformed relation, partitioned across SQL workers.
	// Unless the spec scales columns (a two-pass breaker), it is a
	// STREAMING result — the recode/coding query runs as the caller
	// consumes it (Batches, or the Materialize shim).
	Result *sqlengine.Result
	// Map is the recode map used (built fresh, or the cached one passed in).
	Map *RecodeMap
	// MapTable is the catalog name of the materialized map table; it is
	// left registered so callers can cache it (§5.2) — drop it when done.
	MapTable string
}

// Apply runs the full In-SQL transformation over a catalog table: build (or
// reuse) the recode map, then recode and expand the coded columns in one
// join query (RecodeJoinSQL). A non-nil cachedMap skips phase 1 of
// recoding entirely — the benefit measured by the paper's "cache recode
// maps" bar in Figure 4.
func Apply(e *sqlengine.Engine, table string, spec Spec, cachedMap *RecodeMap) (*Output, error) {
	if len(spec.RecodeCols) == 0 {
		return nil, fmt.Errorf("transform: spec lists no categorical columns")
	}
	for _, c := range spec.CodeCols {
		found := false
		for _, rc := range spec.RecodeCols {
			if rc == c {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("transform: coded column %q is not in RecodeCols", c)
		}
	}

	var (
		m        *RecodeMap
		mapTable string
		err      error
	)
	if cachedMap != nil {
		m = cachedMap
		mapTable, err = MaterializeMap(e, m)
	} else {
		m, mapTable, err = BuildRecodeMap(e, table, spec.RecodeCols)
	}
	if err != nil {
		return nil, err
	}

	t, err := e.Catalog().Get(table)
	if err != nil {
		return nil, err
	}
	sql, err := RecodeJoinSQL(t.Schema, table, mapTable, spec, m)
	if err != nil {
		return nil, err
	}
	recoded, err := e.QueryStream(sql)
	if err != nil {
		return nil, err
	}
	out := &Output{Result: recoded, Map: m, MapTable: mapTable}
	if len(spec.ScaleCols) > 0 && spec.Scaling != ScalingNone {
		// Scaling is inherently two passes (statistics, then apply), so it
		// is a pipeline breaker: materialize the input once here.
		tmp := tmpName("prescale")
		if err := e.RegisterResult(tmp, out.Result); err != nil {
			return nil, err
		}
		scaled, err := scale(e, tmp, spec.ScaleCols, spec.Scaling)
		e.DropTable(tmp)
		if err != nil {
			return nil, err
		}
		out.Result = scaled
	}
	return out, nil
}

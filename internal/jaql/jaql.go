// Package jaql is the external data-transformation tool of the paper's
// naive baseline: a Jaql-like system with "built-in functions for recoding
// of categorical variables and dummy coding" that runs as MapReduce jobs
// over the DFS.
//
// The naive pipeline (Figure 3, "naive") is: the SQL engine materialises
// its query result onto the DFS, this package reads it, transforms it with
// two MapReduce jobs (recode-map construction, then a map-only
// recode+coding pass), and writes the transformed data back to the DFS for
// the ML system to ingest — the extra hop and double materialisation whose
// cost the In-SQL approach eliminates.
package jaql

import (
	"fmt"
	"math"
	"strings"

	"sqlml/internal/hadoopfmt"
	"sqlml/internal/mapred"
	"sqlml/internal/row"
	"sqlml/internal/transform"
)

// Result reports what a Transform run produced.
type Result struct {
	// OutputPath is the DFS directory holding the transformed part files.
	OutputPath string
	// Schema is the transformed row schema.
	Schema row.Schema
	// Map is the recode map built by the first job.
	Map *transform.RecodeMap
	// MapJob / ApplyJob are the per-job counters.
	MapJob   *mapred.Stats
	ApplyJob *mapred.Stats
}

// Transform reads the text table(s) under inputPath (a file or a directory
// of part files), recodes and codes them per spec, and writes the result
// under outputPath. It runs as two MapReduce jobs on mr, exactly the
// middle hop of the naive pipeline.
func Transform(mr mapred.Cluster, inputPath string, inputSchema row.Schema, spec transform.Spec, outputPath string) (*Result, error) {
	if len(spec.RecodeCols) == 0 {
		return nil, fmt.Errorf("jaql: spec lists no categorical columns")
	}
	input := hadoopfmt.NewTextTableFormat(mr.FS, inputPath, inputSchema)

	// Job 1: build the recode map. Mappers emit one record per distinct
	// (column, value) pair seen locally; a single reducer sees the keys in
	// sorted order and assigns consecutive IDs per column.
	catIdx := make([]int, len(spec.RecodeCols))
	for i, c := range spec.RecodeCols {
		idx := inputSchema.ColIndex(c)
		if idx < 0 {
			return nil, fmt.Errorf("jaql: unknown column %q", c)
		}
		if inputSchema.Cols[idx].Type != row.TypeString {
			return nil, fmt.Errorf("jaql: column %q is %s; recoding applies to VARCHAR", c, inputSchema.Cols[idx].Type)
		}
		catIdx[i] = idx
	}
	catNames := make([]string, len(spec.RecodeCols))
	for i, c := range spec.RecodeCols {
		catNames[i] = strings.ToLower(c)
	}

	mapJobOut := outputPath + "__recodemap"
	mapJob := &mapred.Job{
		Cluster: mr,
		Name:    "jaql-recode-map",
		Input:   input,
		Mapper: mapred.MapperFunc(func(r row.Row, emit func(string, row.Row) error) error {
			for i, ci := range catIdx {
				if r[ci].Null {
					continue
				}
				key := catNames[i] + "\x00" + r[ci].AsString()
				if err := emit(key, row.Row{}); err != nil {
					return err
				}
			}
			return nil
		}),
		Reducer: &recodeIDReducer{},
		// The combiner collapses each mapper's duplicate (column, value)
		// pairs locally, so the single global reducer only receives each
		// distinct pair once per map task — the MapReduce equivalent of the
		// In-SQL path computing local distincts in one scan.
		Combiner: mapred.ReducerFunc(func(key string, _ []row.Row, emit func(row.Row) error) error {
			return emit(row.Row{})
		}),
		// One reducer: the ID assignment needs a global sorted view, the
		// same reason the In-SQL path's assign_recode_ids UDF is global.
		NumReducers:  1,
		OutputPath:   mapJobOut,
		OutputSchema: transform.MapSchema(),
	}
	mapStats, err := mapred.Run(mapJob)
	if err != nil {
		return nil, fmt.Errorf("jaql: recode-map job: %w", err)
	}
	mapRows, err := hadoopfmt.ReadAll(mapred.Output(mapJob), mr.Topo.Node(mr.TaskNodes[0]))
	if err != nil {
		return nil, err
	}
	m, err := transform.FromRows(mapRows)
	if err != nil {
		return nil, err
	}

	// Job 2: map-only recode + coding pass over the data.
	enc, err := transform.NewEncoder(inputSchema, m, spec.RecodeCols, spec.CodeCols, spec.Coding)
	if err != nil {
		return nil, err
	}
	applyJob := &mapred.Job{
		Cluster: mr,
		Name:    "jaql-transform",
		Input:   input,
		Mapper: mapred.MapperFunc(func(r row.Row, emit func(string, row.Row) error) error {
			out, ok, err := enc.Encode(r)
			if err != nil || !ok {
				return err
			}
			return emit("", out)
		}),
		OutputPath:   outputPath,
		OutputSchema: enc.Schema(),
	}
	applyStats, err := mapred.Run(applyJob)
	if err != nil {
		return nil, fmt.Errorf("jaql: transform job: %w", err)
	}
	res := &Result{
		OutputPath: outputPath,
		Schema:     enc.Schema(),
		Map:        m,
		MapJob:     mapStats,
		ApplyJob:   applyStats,
	}
	if len(spec.ScaleCols) > 0 && spec.Scaling != transform.ScalingNone {
		// Jobs 3 and 4: numeric feature scaling, mirroring the In-SQL
		// two-phase structure (a statistics pass, then an apply pass).
		scaledPath := outputPath + "__scaled"
		if err := scaleJobs(mr, res.OutputPath, res.Schema, spec, scaledPath); err != nil {
			return nil, err
		}
		res.OutputPath = scaledPath
		res.Schema, err = scaledSchema(res.Schema, spec.ScaleCols)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// scaledSchema rewrites the scaled columns as DOUBLE.
func scaledSchema(in row.Schema, cols []string) (row.Schema, error) {
	target := make(map[string]bool, len(cols))
	for _, c := range cols {
		if in.ColIndex(c) < 0 {
			return row.Schema{}, fmt.Errorf("jaql: unknown scale column %q", c)
		}
		target[strings.ToLower(c)] = true
	}
	out := make([]row.Column, in.Len())
	for i, c := range in.Cols {
		out[i] = c
		if target[strings.ToLower(c.Name)] {
			out[i].Type = row.TypeFloat
		}
	}
	return row.NewSchema(out...)
}

// scaleJobs runs the statistics job (with a combiner collapsing per-task
// partials) and the map-only apply job.
func scaleJobs(mr mapred.Cluster, inputPath string, schema row.Schema, spec transform.Spec, outputPath string) error {
	idx := make([]int, len(spec.ScaleCols))
	names := make([]string, len(spec.ScaleCols))
	for i, c := range spec.ScaleCols {
		j := schema.ColIndex(c)
		if j < 0 {
			return fmt.Errorf("jaql: unknown scale column %q", c)
		}
		if t := schema.Cols[j].Type; t != row.TypeInt && t != row.TypeFloat {
			return fmt.Errorf("jaql: column %q is %s; scaling applies to numeric columns", c, t)
		}
		idx[i] = j
		names[i] = strings.ToLower(c)
	}

	// Job 3: per-column partial statistics. Mappers emit one partial per
	// row per column (cnt, sum, sumsq, min, max); the combiner merges them
	// per map task, the single reducer produces the global row per column.
	partialSchema := row.MustSchema(
		row.Column{Name: "colname", Type: row.TypeString},
		row.Column{Name: "cnt", Type: row.TypeInt},
		row.Column{Name: "sum", Type: row.TypeFloat},
		row.Column{Name: "sumsq", Type: row.TypeFloat},
		row.Column{Name: "minv", Type: row.TypeFloat},
		row.Column{Name: "maxv", Type: row.TypeFloat},
	)
	merge := mapred.ReducerFunc(func(key string, values []row.Row, emit func(row.Row) error) error {
		var cnt int64
		var sum, sumsq float64
		minV, maxV := math.Inf(1), math.Inf(-1)
		for _, v := range values {
			cnt += v[1].AsInt()
			sum += v[2].AsFloat()
			sumsq += v[3].AsFloat()
			minV = math.Min(minV, v[4].AsFloat())
			maxV = math.Max(maxV, v[5].AsFloat())
		}
		return emit(row.Row{
			row.String_(key), row.Int(cnt), row.Float(sum), row.Float(sumsq),
			row.Float(minV), row.Float(maxV),
		})
	})
	statsJob := &mapred.Job{
		Cluster: mr,
		Name:    "jaql-scale-stats",
		Input:   hadoopfmt.NewTextTableFormat(mr.FS, inputPath, schema),
		Mapper: mapred.MapperFunc(func(r row.Row, emit func(string, row.Row) error) error {
			for i, ci := range idx {
				v := r[ci]
				if v.Null {
					continue
				}
				x := v.AsFloat()
				if err := emit(names[i], row.Row{
					row.String_(names[i]), row.Int(1), row.Float(x), row.Float(x * x),
					row.Float(x), row.Float(x),
				}); err != nil {
					return err
				}
			}
			return nil
		}),
		Combiner:     merge,
		Reducer:      merge,
		NumReducers:  1,
		OutputPath:   outputPath + "__stats",
		OutputSchema: partialSchema,
	}
	if _, err := mapred.Run(statsJob); err != nil {
		return fmt.Errorf("jaql: scale stats job: %w", err)
	}
	statsRows, err := hadoopfmt.ReadAll(mapred.Output(statsJob), mr.Topo.Node(mr.TaskNodes[0]))
	if err != nil {
		return err
	}
	stats := make(map[string]transform.ColumnStats, len(statsRows))
	for _, r := range statsRows {
		n := r[1].AsInt()
		mean := r[2].AsFloat() / float64(n)
		variance := r[3].AsFloat()/float64(n) - mean*mean
		if variance < 0 {
			variance = 0
		}
		stats[r[0].AsString()] = transform.ColumnStats{
			Count: n, Mean: mean, Std: math.Sqrt(variance),
			Min: r[4].AsFloat(), Max: r[5].AsFloat(),
		}
	}

	// Job 4: map-only apply pass.
	outSchema, err := scaledSchema(schema, spec.ScaleCols)
	if err != nil {
		return err
	}
	applyJob := &mapred.Job{
		Cluster: mr,
		Name:    "jaql-scale-apply",
		Input:   hadoopfmt.NewTextTableFormat(mr.FS, inputPath, schema),
		Mapper: mapred.MapperFunc(func(r row.Row, emit func(string, row.Row) error) error {
			out := r.Clone()
			for i, ci := range idx {
				v := out[ci]
				if v.Null {
					out[ci] = row.NullOf(row.TypeFloat)
					continue
				}
				s := stats[names[i]]
				x := v.AsFloat()
				switch spec.Scaling {
				case transform.ScalingStandard:
					if s.Std == 0 {
						x = 0
					} else {
						x = (x - s.Mean) / s.Std
					}
				case transform.ScalingMinMax:
					if s.Max == s.Min {
						x = 0
					} else {
						x = (x - s.Min) / (s.Max - s.Min)
					}
				}
				out[ci] = row.Float(x)
			}
			return emit("", out)
		}),
		OutputPath:   outputPath,
		OutputSchema: outSchema,
	}
	if _, err := mapred.Run(applyJob); err != nil {
		return fmt.Errorf("jaql: scale apply job: %w", err)
	}
	return nil
}

// recodeIDReducer assigns consecutive recode IDs: because a single reducer
// receives the (column, value) keys in sorted order, a running counter per
// column yields IDs 1..K in sorted value order — matching the In-SQL path.
type recodeIDReducer struct {
	lastCol string
	next    int64
}

// Reduce implements mapred.Reducer.
func (r *recodeIDReducer) Reduce(key string, values []row.Row, emit func(row.Row) error) error {
	parts := strings.SplitN(key, "\x00", 2)
	if len(parts) != 2 {
		return fmt.Errorf("jaql: malformed recode key %q", key)
	}
	col, val := parts[0], parts[1]
	if col != r.lastCol {
		r.lastCol = col
		r.next = 0
	}
	r.next++
	return emit(row.Row{row.String_(col), row.String_(val), row.Int(r.next)})
}

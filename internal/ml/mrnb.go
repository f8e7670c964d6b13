package ml

import (
	"fmt"
	"strconv"

	"sqlml/internal/hadoopfmt"
	"sqlml/internal/mapred"
	"sqlml/internal/row"
)

// TrainNaiveBayesMR trains multinomial naive Bayes as a MapReduce job —
// the repository's Mahout analog. It consumes ANY InputFormat (a DFS table
// or the parallel streaming transfer alike), which is exactly the paper's
// genericity claim: an ML system whose only coupling to the SQL side is
// the InputFormat seam.
//
// The job runs on mr and emits one record per (class) key from each mapper
// with partial counts and feature sums; reducers merge them; the model is
// assembled from the job output (materialised under workPath on the DFS).
func TrainNaiveBayesMR(mr mapred.Cluster, input hadoopfmt.InputFormat, opts IngestOptions, lambda float64, workPath string) (*NaiveBayesModel, error) {
	if lambda <= 0 {
		return nil, fmt.Errorf("ml: smoothing lambda must be positive")
	}
	schema, err := input.Schema()
	if err != nil {
		return nil, err
	}
	conv, err := newConverter(schema, opts)
	if err != nil {
		return nil, err
	}
	dim := conv.numFeatures

	// Output schema: label, count, then one sum column per feature.
	cols := []row.Column{
		{Name: "label", Type: row.TypeFloat},
		{Name: "count", Type: row.TypeInt},
	}
	for j := 0; j < dim; j++ {
		cols = append(cols, row.Column{Name: "s" + strconv.Itoa(j), Type: row.TypeFloat})
	}
	outSchema, err := row.NewSchema(cols...)
	if err != nil {
		return nil, err
	}

	job := &mapred.Job{
		Cluster: mr,
		Name:    "naive-bayes-train",
		Input:   input,
		Mapper: mapred.MapperFunc(func(r row.Row, emit func(string, row.Row) error) error {
			// Map tasks share this closure, so each row gets its own slice.
			p, err := conv.convert(r, make([]float64, dim))
			if err != nil {
				return err
			}
			out := make(row.Row, 0, dim+2)
			out = append(out, row.Float(p.Label), row.Int(1))
			for _, x := range p.Features {
				if x < 0 {
					return fmt.Errorf("ml: multinomial naive Bayes requires non-negative features, found %v", x)
				}
				out = append(out, row.Float(x))
			}
			return emit(strconv.FormatFloat(p.Label, 'g', -1, 64), out)
		}),
		Reducer: mapred.ReducerFunc(func(key string, values []row.Row, emit func(row.Row) error) error {
			var count int64
			sums := make([]float64, dim)
			label := values[0][0]
			for _, v := range values {
				count += v[1].AsInt()
				for j := 0; j < dim; j++ {
					sums[j] += v[2+j].AsFloat()
				}
			}
			out := make(row.Row, 0, dim+2)
			out = append(out, label, row.Int(count))
			for _, s := range sums {
				out = append(out, row.Float(s))
			}
			return emit(out)
		}),
		NumReducers:  len(mr.TaskNodes),
		OutputPath:   workPath,
		OutputSchema: outSchema,
	}
	if _, err := mapred.Run(job); err != nil {
		return nil, err
	}

	stats, err := hadoopfmt.ReadAll(mapred.Output(job), mr.Topo.Node(mr.TaskNodes[0]))
	if err != nil {
		return nil, err
	}
	if len(stats) == 0 {
		return nil, fmt.Errorf("ml: naive Bayes job produced no class statistics")
	}
	m := make(classes)
	sums := make([]float64, dim)
	for _, s := range stats {
		for j := range sums {
			sums[j] = s[2+j].AsFloat()
		}
		m.add(s[0].AsFloat(), s[1].AsInt(), sums)
	}
	return m.model(lambda), nil
}

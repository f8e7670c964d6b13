// Package ml implements the "big ML system" substrate: a distributed
// machine-learning engine whose only ingestion path is the Hadoop-style
// InputFormat interface — the property the paper's streaming transfer
// relies on ("in fact, all ML systems on Hadoop do").
//
// The engine keeps datasets as in-memory partitioned collections of labeled
// points (the Spark RDD analog: the paper measures "the time from the start
// of the ML job till the in-memory RDD is constructed") and provides the
// algorithms the paper names: SVM with SGD — the evaluation's workload —
// plus logistic regression, naive Bayes, decision trees, linear regression
// and k-means. A MapReduce-trained naive Bayes (the "Mahout" analog) lives
// in mrnb.go to demonstrate engine-independence of the transfer path.
package ml

import (
	"context"
	"fmt"

	"sqlml/internal/cluster"
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/row"
)

// LabeledPoint is one training example.
type LabeledPoint struct {
	Label    float64
	Features []float64
}

// Dataset is a distributed in-memory collection of labeled points:
// Parts[i] lives on Nodes[i].
type Dataset struct {
	Parts       [][]LabeledPoint
	Nodes       []*cluster.Node
	NumFeatures int
}

// NumRows returns the total number of points.
func (d *Dataset) NumRows() int {
	n := 0
	for _, p := range d.Parts {
		n += len(p)
	}
	return n
}

// All flattens the partitions (tests and small data only).
func (d *Dataset) All() []LabeledPoint {
	out := make([]LabeledPoint, 0, d.NumRows())
	for _, p := range d.Parts {
		out = append(out, p...)
	}
	return out
}

// IngestOptions configures conversion of rows into labeled points.
type IngestOptions struct {
	// LabelCol names the label column. All other columns become features
	// unless FeatureCols narrows them. Every used column must be numeric.
	LabelCol    string
	FeatureCols []string
	// LabelTransform optionally remaps raw label values (e.g. the recoded
	// 1/2 classes of the paper's abandoned field to SVM's 0/1).
	LabelTransform func(float64) float64
	// NumWorkers is the requested parallelism (split-count hint). When the
	// format dictates its own splits (the streaming format does), the
	// dataset simply has one partition per split.
	NumWorkers int
	// Nodes are the ML worker placement candidates; split locality is
	// honoured best-effort against their addresses.
	Nodes []*cluster.Node
	// Cost, when non-nil, charges one processing pass per ingested split
	// (parsing rows into the in-memory dataset is a pass over the data).
	Cost *cluster.CostModel
}

// Ingest reads an InputFormat into a Dataset, one partition per split, with
// splits placed on local nodes when possible. This is the boundary the
// paper times as "input for ML".
func Ingest(f hadoopfmt.InputFormat, opts IngestOptions) (*Dataset, error) {
	if len(opts.Nodes) == 0 {
		return nil, fmt.Errorf("ml: no worker nodes")
	}
	schema, err := f.Schema()
	if err != nil {
		return nil, err
	}
	conv, err := newConverter(schema, opts)
	if err != nil {
		return nil, err
	}
	numWorkers := opts.NumWorkers
	if numWorkers <= 0 {
		numWorkers = len(opts.Nodes)
	}
	splits, err := f.Splits(numWorkers)
	if err != nil {
		return nil, err
	}
	if len(splits) == 0 {
		return &Dataset{Parts: nil, Nodes: nil, NumFeatures: conv.numFeatures}, nil
	}

	// Best-effort locality placement, mirroring the paper's colocation of
	// ML workers with their SQL workers.
	nodes := make([]*cluster.Node, len(splits))
	for i, ni := range hadoopfmt.Place(splits, opts.Nodes) {
		nodes[i] = opts.Nodes[ni]
	}

	// A retryable split failure (the §6 restart protocol: a failed
	// transfer re-runs the whole task) re-executes the task; a failed
	// attempt returns no points, so re-execution starts from an empty
	// partition.
	parts := make([][]LabeledPoint, len(splits))
	err = runAll(len(splits), hadoopfmt.WithAttemptBudget(func(i, _ int) error {
		part, err := readSplit(f, splits[i], nodes[i], conv)
		if err != nil {
			return err
		}
		parts[i] = part
		opts.Cost.ChargeProc(nodes[i], 9*len(part)*(conv.numFeatures+1))
		return nil
	}))
	if err != nil {
		return nil, err
	}
	return &Dataset{Parts: parts, Nodes: nodes, NumFeatures: conv.numFeatures}, nil
}

// runAll runs task(i) for every i in [0, n) at once on hadoopfmt.RunTasks,
// with no stop: every split reader opens, and every partition's pass runs,
// even after another task fails.
func runAll(n int, task func(i int) error) error {
	return hadoopfmt.RunTasks(context.Background(), nil, n, n, task)
}

// readSplit runs one ingest task: open the split, build points straight
// from each column batch's typed vectors (convertBatch), and assemble the
// split's chunks into one exact-length partition at EOF.
func readSplit(f hadoopfmt.InputFormat, split hadoopfmt.InputSplit, node *cluster.Node, conv *converter) (part []LabeledPoint, err error) {
	rr, err := f.Open(split, node)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := rr.Close(); cerr != nil && err == nil {
			part, err = nil, cerr
		}
	}()
	cb := row.GetColBatch(nil)
	defer row.PutColBatch(cb)
	var chunks [][]LabeledPoint
	for {
		_, ok, err := rr.NextColBatch(cb)
		if err != nil {
			return nil, err
		}
		if !ok {
			return assemble(chunks), nil
		}
		pts, err := conv.convertBatch(cb)
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, pts)
	}
}

// assemble copies a split's point chunks into one exact-length partition.
// The feature slices keep pointing into the chunks' slabs, which the
// dataset owns from here on.
func assemble(chunks [][]LabeledPoint) []LabeledPoint {
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	if n == 0 {
		return nil
	}
	out := make([]LabeledPoint, 0, n)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

type converter struct {
	labelIdx       int
	featureIdx     []int
	labelTransform func(float64) float64
	numFeatures    int
}

func newConverter(schema row.Schema, opts IngestOptions) (*converter, error) {
	labelIdx := schema.ColIndex(opts.LabelCol)
	if labelIdx < 0 {
		return nil, fmt.Errorf("ml: unknown label column %q", opts.LabelCol)
	}
	if t := schema.Cols[labelIdx].Type; t != row.TypeInt && t != row.TypeFloat {
		return nil, fmt.Errorf("ml: label column %q is %s; labels must be numeric", opts.LabelCol, t)
	}
	var featureIdx []int
	if len(opts.FeatureCols) > 0 {
		for _, c := range opts.FeatureCols {
			i := schema.ColIndex(c)
			if i < 0 {
				return nil, fmt.Errorf("ml: unknown feature column %q", c)
			}
			if i == labelIdx {
				return nil, fmt.Errorf("ml: label column %q listed as a feature", c)
			}
			featureIdx = append(featureIdx, i)
		}
	} else {
		for i := range schema.Cols {
			if i != labelIdx {
				featureIdx = append(featureIdx, i)
			}
		}
	}
	for _, i := range featureIdx {
		if t := schema.Cols[i].Type; t != row.TypeInt && t != row.TypeFloat {
			return nil, fmt.Errorf("ml: feature column %q is %s; ML systems require numeric features — recode/dummy-code categorical columns first", schema.Cols[i].Name, t)
		}
	}
	if len(featureIdx) == 0 {
		return nil, fmt.Errorf("ml: no feature columns")
	}
	lt := opts.LabelTransform
	if lt == nil {
		lt = func(v float64) float64 { return v }
	}
	return &converter{labelIdx: labelIdx, featureIdx: featureIdx, labelTransform: lt, numFeatures: len(featureIdx)}, nil
}

// convert builds one point from a row, writing its features into dst
// (len numFeatures), which the point then holds as its Features. It is the
// MapReduce trainer's (mrnb): a map task's contract is one record.
func (c *converter) convert(r row.Row, dst []float64) (LabeledPoint, error) {
	lv := r[c.labelIdx]
	if lv.Null {
		return LabeledPoint{}, fmt.Errorf("ml: NULL label")
	}
	for j, i := range c.featureIdx {
		v := r[i]
		if v.Null {
			return LabeledPoint{}, fmt.Errorf("ml: NULL feature in column %d", i)
		}
		dst[j] = v.AsFloat()
	}
	return LabeledPoint{Label: c.labelTransform(lv.AsFloat()), Features: dst}, nil
}

// convertBatch builds a batch's live points straight from its typed
// vectors, so ingest never pivots through rows. It allocates the points and one feature slab;
// point k's features are slab[k*nf:(k+1)*nf] with capacity capped at nf, so
// appending to one point never writes into the next. The slab is filled a
// column at a time after one pass over the labels, so a NULL label is
// reported before a NULL feature in an earlier row.
func (c *converter) convertBatch(b *row.ColBatch) ([]LabeledPoint, error) {
	n, nf := b.Len(), c.numFeatures
	pts := make([]LabeledPoint, n)
	slab := make([]float64, n*nf)
	lv := b.Col(c.labelIdx)
	for si := range pts {
		p := b.SelPos(si)
		if lv.Null(p) {
			return nil, fmt.Errorf("ml: NULL label")
		}
		var l float64
		if lv.Type() == row.TypeInt {
			l = float64(lv.Ints[p])
		} else {
			l = lv.Floats[p]
		}
		pts[si] = LabeledPoint{Label: c.labelTransform(l), Features: slab[si*nf : (si+1)*nf : (si+1)*nf]}
	}
	for j, i := range c.featureIdx {
		v := b.Col(i)
		if v.HasNulls() {
			for si := 0; si < n; si++ {
				if v.Null(b.SelPos(si)) {
					return nil, fmt.Errorf("ml: NULL feature in column %d", i)
				}
			}
		}
		if v.Type() == row.TypeInt {
			for si, k := 0, j; si < n; si, k = si+1, k+nf {
				slab[k] = float64(v.Ints[b.SelPos(si)])
			}
		} else {
			for si, k := 0, j; si < n; si, k = si+1, k+nf {
				slab[k] = v.Floats[b.SelPos(si)]
			}
		}
	}
	return pts, nil
}

package ml

import (
	"math"
	"math/rand"
	"testing"

	"sqlml/internal/cluster"
	"sqlml/internal/dfs"
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/mapred"
	"sqlml/internal/row"
)

// syntheticBinary builds a linearly separable-ish binary dataset: label 1
// when 2*x0 - x1 + noise > 0.
func syntheticBinary(n, parts int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{Parts: make([][]LabeledPoint, parts), NumFeatures: 2}
	for i := 0; i < n; i++ {
		x0 := rng.NormFloat64()
		x1 := rng.NormFloat64()
		label := 0.0
		if 2*x0-x1+0.1*rng.NormFloat64() > 0 {
			label = 1.0
		}
		p := LabeledPoint{Label: label, Features: []float64{x0, x1}}
		d.Parts[i%parts] = append(d.Parts[i%parts], p)
	}
	return d
}

func TestSVMLearnsSeparableData(t *testing.T) {
	d := syntheticBinary(2000, 4, 1)
	cfg := DefaultSGD()
	cfg.Iterations = 150
	m, err := TrainSVMWithSGD(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc := Accuracy(d, m.Predict)
	if acc < 0.95 {
		t.Errorf("SVM train accuracy = %.3f, want >= 0.95", acc)
	}
	// Fresh sample from the same distribution generalizes.
	test := syntheticBinary(500, 2, 99)
	if acc := Accuracy(test, m.Predict); acc < 0.93 {
		t.Errorf("SVM test accuracy = %.3f", acc)
	}
}

func TestSVMDeterministicWithSeed(t *testing.T) {
	d := syntheticBinary(500, 4, 2)
	cfg := DefaultSGD()
	m1, err := TrainSVMWithSGD(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := TrainSVMWithSGD(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.Weights {
		if m1.Weights[i] != m2.Weights[i] {
			t.Fatalf("weights differ across runs: %v vs %v", m1.Weights, m2.Weights)
		}
	}
	if m1.Intercept != m2.Intercept {
		t.Error("intercepts differ across runs")
	}
}

func TestSVMRejectsNonBinaryLabels(t *testing.T) {
	d := &Dataset{Parts: [][]LabeledPoint{{{Label: 2, Features: []float64{1}}}}, NumFeatures: 1}
	if _, err := TrainSVMWithSGD(d, DefaultSGD()); err == nil {
		t.Error("non-binary labels accepted (recoded 1/2 labels must be remapped)")
	}
}

func TestLogisticRegressionLearnsAndCalibrates(t *testing.T) {
	d := syntheticBinary(2000, 4, 3)
	cfg := DefaultSGD()
	cfg.Iterations = 200
	cfg.StepSize = 2
	m, err := TrainLogisticRegressionWithSGD(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(d, m.Predict); acc < 0.94 {
		t.Errorf("logistic accuracy = %.3f", acc)
	}
	// Far on the positive side → probability near 1.
	if p := m.Probability([]float64{5, -5}); p < 0.9 {
		t.Errorf("P(strong positive) = %.3f", p)
	}
	if p := m.Probability([]float64{-5, 5}); p > 0.1 {
		t.Errorf("P(strong negative) = %.3f", p)
	}
}

func TestSGDConfigValidation(t *testing.T) {
	d := syntheticBinary(50, 2, 5)
	bad := []SGDConfig{
		{Iterations: 0, StepSize: 1, MiniBatchFraction: 1},
		{Iterations: 10, StepSize: 0, MiniBatchFraction: 1},
		{Iterations: 10, StepSize: 1, MiniBatchFraction: 0},
		{Iterations: 10, StepSize: 1, MiniBatchFraction: 1.5},
	}
	for i, cfg := range bad {
		if _, err := TrainSVMWithSGD(d, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := TrainSVMWithSGD(&Dataset{NumFeatures: 1}, DefaultSGD()); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestMiniBatchStillLearns(t *testing.T) {
	d := syntheticBinary(2000, 4, 6)
	cfg := DefaultSGD()
	cfg.MiniBatchFraction = 0.3
	cfg.Iterations = 200
	m, err := TrainSVMWithSGD(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(d, m.Predict); acc < 0.9 {
		t.Errorf("mini-batch accuracy = %.3f", acc)
	}
}

// dummyCoded builds a naive-Bayes-friendly dataset of one-hot features
// where class correlates with which block is hot.
func dummyCoded(n, parts int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{Parts: make([][]LabeledPoint, parts), NumFeatures: 4}
	for i := 0; i < n; i++ {
		label := float64(rng.Intn(2))
		f := make([]float64, 4)
		// Class 0 mostly lights features 0/1; class 1 features 2/3.
		base := 0
		if label == 1 {
			base = 2
		}
		if rng.Float64() < 0.9 {
			f[base+rng.Intn(2)] = 1
		} else {
			f[(base+2)%4+rng.Intn(2)] = 1
		}
		d.Parts[i%parts] = append(d.Parts[i%parts], LabeledPoint{Label: label, Features: f})
	}
	return d
}

func TestNaiveBayesOnDummyCodedFeatures(t *testing.T) {
	d := dummyCoded(3000, 4, 7)
	m, err := TrainNaiveBayes(d, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Labels) != 2 {
		t.Fatalf("labels = %v", m.Labels)
	}
	if acc := Accuracy(d, m.Predict); acc < 0.85 {
		t.Errorf("naive Bayes accuracy = %.3f", acc)
	}
}

func TestNaiveBayesValidation(t *testing.T) {
	neg := &Dataset{Parts: [][]LabeledPoint{{{Label: 0, Features: []float64{-1}}}}, NumFeatures: 1}
	if _, err := TrainNaiveBayes(neg, 1.0); err == nil {
		t.Error("negative features accepted")
	}
	d := dummyCoded(10, 2, 8)
	if _, err := TrainNaiveBayes(d, 0); err == nil {
		t.Error("zero lambda accepted")
	}
	if _, err := TrainNaiveBayes(&Dataset{NumFeatures: 1}, 1.0); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestDecisionTreeLearnsAxisAlignedConcept(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := &Dataset{Parts: make([][]LabeledPoint, 4), NumFeatures: 2}
	for i := 0; i < 2000; i++ {
		x0, x1 := rng.Float64()*10, rng.Float64()*10
		label := 0.0
		if x0 > 5 && x1 > 3 {
			label = 1
		}
		d.Parts[i%4] = append(d.Parts[i%4], LabeledPoint{Label: label, Features: []float64{x0, x1}})
	}
	m, err := TrainDecisionTree(d, DefaultTree())
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(d, m.Predict); acc < 0.97 {
		t.Errorf("tree accuracy = %.3f", acc)
	}
	if m.Depth < 2 {
		t.Errorf("tree too shallow: depth %d", m.Depth)
	}
}

func TestDecisionTreeDepthLimit(t *testing.T) {
	d := syntheticBinary(500, 2, 10)
	m, err := TrainDecisionTree(d, TreeConfig{MaxDepth: 1, MaxBins: 16, MinGain: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if m.Depth > 1 {
		t.Errorf("depth %d exceeds limit 1", m.Depth)
	}
	// A depth-1 tree on this data is a single split: both children leaves.
	if !m.Root.IsLeaf() {
		if !m.Root.Left.IsLeaf() || !m.Root.Right.IsLeaf() {
			t.Error("children of depth-1 root must be leaves")
		}
	}
}

func TestDecisionTreeConstantFeatures(t *testing.T) {
	d := &Dataset{Parts: [][]LabeledPoint{{
		{Label: 0, Features: []float64{1, 1}},
		{Label: 1, Features: []float64{1, 1}},
		{Label: 1, Features: []float64{1, 1}},
	}}, NumFeatures: 2}
	m, err := TrainDecisionTree(d, DefaultTree())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Root.IsLeaf() {
		t.Error("constant features must yield a leaf")
	}
	if m.Predict([]float64{1, 1}) != 1 {
		t.Error("leaf should predict the majority class")
	}
}

func ingestSchema() row.Schema {
	return row.MustSchema(
		row.Column{Name: "age", Type: row.TypeInt},
		row.Column{Name: "amount", Type: row.TypeFloat},
		row.Column{Name: "abandoned", Type: row.TypeInt},
	)
}

func TestIngestFromSliceFormat(t *testing.T) {
	topo := cluster.NewTopology(4)
	rows := []row.Row{
		{row.Int(30), row.Float(100), row.Int(2)},
		{row.Int(40), row.Float(200), row.Int(1)},
		{row.Int(50), row.Float(300), row.Int(1)},
	}
	f := &hadoopfmt.SliceFormat{Rows: rows, RowSchema: ingestSchema()}
	d, err := Ingest(f, IngestOptions{
		LabelCol: "abandoned",
		// Map the recoded 1/2 labels to SVM's 1/0 (1 = abandoned).
		LabelTransform: func(v float64) float64 {
			if v == 1 {
				return 1
			}
			return 0
		},
		NumWorkers: 3,
		Nodes:      topo.Nodes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 3 || d.NumFeatures != 2 {
		t.Fatalf("rows=%d features=%d", d.NumRows(), d.NumFeatures)
	}
	all := d.All()
	if all[0].Label != 0 || all[1].Label != 1 {
		t.Errorf("label transform: %v", all)
	}
	if all[0].Features[0] != 30 || all[0].Features[1] != 100 {
		t.Errorf("features: %v", all[0])
	}
}

func TestIngestErrors(t *testing.T) {
	topo := cluster.NewTopology(2)
	stringSchema := row.MustSchema(
		row.Column{Name: "label", Type: row.TypeInt},
		row.Column{Name: "gender", Type: row.TypeString},
	)
	f := &hadoopfmt.SliceFormat{
		Rows:      []row.Row{{row.Int(1), row.String_("F")}},
		RowSchema: stringSchema,
	}
	if _, err := Ingest(f, IngestOptions{LabelCol: "label", Nodes: topo.Nodes()}); err == nil {
		t.Error("VARCHAR feature accepted — must demand recoding first")
	}
	if _, err := Ingest(f, IngestOptions{LabelCol: "nosuch", Nodes: topo.Nodes()}); err == nil {
		t.Error("unknown label accepted")
	}
	if _, err := Ingest(f, IngestOptions{LabelCol: "label"}); err == nil {
		t.Error("no nodes accepted")
	}
	if _, err := Ingest(f, IngestOptions{LabelCol: "label", FeatureCols: []string{"label"}, Nodes: topo.Nodes()}); err == nil {
		t.Error("label as feature accepted")
	}
	nullRows := &hadoopfmt.SliceFormat{
		Rows:      []row.Row{{row.NullOf(row.TypeInt), row.String_("F")}},
		RowSchema: stringSchema,
	}
	if _, err := Ingest(nullRows, IngestOptions{LabelCol: "label", FeatureCols: []string{"label"}, Nodes: topo.Nodes()}); err == nil {
		t.Error("degenerate options accepted")
	}
}

func TestIngestHonorsLocality(t *testing.T) {
	topo := cluster.NewTopology(3)
	rows := make([]row.Row, 9)
	for i := range rows {
		rows[i] = row.Row{row.Int(int64(i)), row.Float(1), row.Int(1)}
	}
	f := &hadoopfmt.SliceFormat{
		Rows:      rows,
		RowSchema: ingestSchema(),
		Hosts:     []string{topo.Node(2).Addr},
	}
	d, err := Ingest(f, IngestOptions{LabelCol: "abandoned", NumWorkers: 3, Nodes: topo.Nodes()})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range d.Nodes {
		if n != topo.Node(2) {
			t.Errorf("split %d placed on %s, want local node %s", i, n.Name, topo.Node(2).Name)
		}
	}
}

func TestTrainNaiveBayesMRMatchesInMemory(t *testing.T) {
	topo := cluster.NewTopology(4)
	fs := newFS(topo)
	env := mapred.Cluster{Topo: topo, FS: fs, TaskNodes: []int{0, 1, 2, 3}}

	// Build rows equivalent to a dummy-coded dataset.
	schema := row.MustSchema(
		row.Column{Name: "label", Type: row.TypeInt},
		row.Column{Name: "f0", Type: row.TypeFloat},
		row.Column{Name: "f1", Type: row.TypeFloat},
	)
	rng := rand.New(rand.NewSource(13))
	var rows []row.Row
	for i := 0; i < 400; i++ {
		label := rng.Intn(2)
		f0, f1 := 0.0, 0.0
		if (label == 0) == (rng.Float64() < 0.85) {
			f0 = 1
		} else {
			f1 = 1
		}
		rows = append(rows, row.Row{row.Int(int64(label)), row.Float(f0), row.Float(f1)})
	}
	f := &hadoopfmt.SliceFormat{Rows: rows, RowSchema: schema}
	opts := IngestOptions{LabelCol: "label", Nodes: topo.Nodes()}

	mr, err := TrainNaiveBayesMR(env, f, opts, 1.0, "/nb/model")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Ingest(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := TrainNaiveBayes(d, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.Labels) != len(mem.Labels) {
		t.Fatalf("label counts differ: %v vs %v", mr.Labels, mem.Labels)
	}
	for c := range mr.Labels {
		if math.Abs(mr.Priors[c]-mem.Priors[c]) > 1e-9 {
			t.Errorf("prior[%d]: %v vs %v", c, mr.Priors[c], mem.Priors[c])
		}
		for j := range mr.Theta[c] {
			if math.Abs(mr.Theta[c][j]-mem.Theta[c][j]) > 1e-9 {
				t.Errorf("theta[%d][%d]: %v vs %v", c, j, mr.Theta[c][j], mem.Theta[c][j])
			}
		}
	}
}

func newFS(topo *cluster.Topology) *dfs.FileSystem {
	return dfs.New(topo, dfs.Config{BlockSize: 1024, Replication: 2})
}

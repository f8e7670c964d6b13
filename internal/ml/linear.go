package ml

import (
	"fmt"
	"math"
	"math/rand"

	"sqlml/internal/hadoopfmt"
)

// SGDConfig configures the distributed mini-batch gradient descent shared
// by the linear models (the SVMWithSGD family the paper trains).
type SGDConfig struct {
	Iterations        int
	StepSize          float64
	RegParam          float64 // L2 regularization strength
	MiniBatchFraction float64 // fraction of each partition sampled per step
	AddIntercept      bool
	Seed              int64
}

// DefaultSGD mirrors MLlib's defaults: 100 iterations, step 1.0, full batch.
func DefaultSGD() SGDConfig {
	return SGDConfig{Iterations: 100, StepSize: 1.0, RegParam: 0.01, MiniBatchFraction: 1.0, AddIntercept: true, Seed: 42}
}

// LinearModel is a trained linear predictor: Weights aligned with the
// feature vector, plus an Intercept when fitted.
type LinearModel struct {
	Weights   []float64
	Intercept float64
	// kind selects prediction semantics.
	kind linearKind
	// Threshold for binary classifiers (margin for SVM, probability for
	// logistic regression).
	Threshold float64
}

type linearKind int

const (
	kindSVM linearKind = iota
	kindLogistic
)

// Margin returns w·x + b.
func (m *LinearModel) Margin(x []float64) float64 {
	s := m.Intercept
	for i, w := range m.Weights {
		s += w * x[i]
	}
	return s
}

// Predict returns the class (0/1): the margin for an SVM, the probability
// for logistic regression, compared against Threshold.
func (m *LinearModel) Predict(x []float64) float64 {
	score := m.Margin(x)
	if m.kind == kindLogistic {
		score = sigmoid(score)
	}
	if score >= m.Threshold {
		return 1
	}
	return 0
}

// Probability returns P(label=1 | x) for logistic models.
func (m *LinearModel) Probability(x []float64) float64 {
	if m.kind != kindLogistic {
		panic("ml: Probability on a non-logistic model")
	}
	return sigmoid(m.Margin(x))
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// gradFn adds one example's loss gradient into grad and returns its loss.
type gradFn func(w []float64, p LabeledPoint, grad []float64) float64

// TrainSVMWithSGD trains a linear SVM (hinge loss, L2) — the algorithm the
// paper's evaluation runs (Spark MLlib's SVMWithSGD). Labels must be 0/1.
func TrainSVMWithSGD(d *Dataset, cfg SGDConfig) (*LinearModel, error) {
	if err := checkBinaryLabels(d); err != nil {
		return nil, err
	}
	hinge := func(w []float64, p LabeledPoint, grad []float64) float64 {
		y := 2*p.Label - 1 // {0,1} → {-1,+1}
		margin := dot(w, p.Features)
		if y*margin < 1 {
			for i, x := range p.Features {
				grad[i] -= y * x
			}
			return 1 - y*margin
		}
		return 0
	}
	w, b, err := runSGD(d, cfg, hinge)
	if err != nil {
		return nil, err
	}
	return &LinearModel{Weights: w, Intercept: b, kind: kindSVM, Threshold: 0}, nil
}

// TrainLogisticRegressionWithSGD trains binary logistic regression.
// Labels must be 0/1.
func TrainLogisticRegressionWithSGD(d *Dataset, cfg SGDConfig) (*LinearModel, error) {
	if err := checkBinaryLabels(d); err != nil {
		return nil, err
	}
	logistic := func(w []float64, p LabeledPoint, grad []float64) float64 {
		margin := dot(w, p.Features)
		prob := sigmoid(margin)
		diff := prob - p.Label
		for i, x := range p.Features {
			grad[i] += diff * x
		}
		// Numerically-stable log loss.
		if p.Label > 0.5 {
			return math.Log1p(math.Exp(-margin))
		}
		return math.Log1p(math.Exp(-margin)) + margin
	}
	w, b, err := runSGD(d, cfg, logistic)
	if err != nil {
		return nil, err
	}
	return &LinearModel{Weights: w, Intercept: b, kind: kindLogistic, Threshold: 0.5}, nil
}

// runSGD is the distributed driver: per iteration, every partition computes
// a sampled gradient sum in parallel (the Spark-style map), the sums are
// aggregated (the reduce), and the weights step with an O(1/sqrt(t))
// schedule and L2 shrinkage.
func runSGD(d *Dataset, cfg SGDConfig, gf gradFn) (weights []float64, intercept float64, err error) {
	if d.NumRows() == 0 {
		return nil, 0, fmt.Errorf("ml: empty dataset")
	}
	if cfg.Iterations <= 0 || cfg.StepSize <= 0 {
		return nil, 0, fmt.Errorf("ml: iterations and step size must be positive")
	}
	if cfg.MiniBatchFraction <= 0 || cfg.MiniBatchFraction > 1 {
		return nil, 0, fmt.Errorf("ml: mini-batch fraction must be in (0,1]")
	}
	dim := d.NumFeatures
	if cfg.AddIntercept {
		dim++
	}
	// Work on (possibly intercept-extended) copies of the partitions, one
	// dim-wide feature slab per partition.
	parts := d.Parts
	if cfg.AddIntercept {
		parts = make([][]LabeledPoint, len(d.Parts))
		if err := hadoopfmt.RunTasks(len(d.Parts), func(i, _ int) error {
			out := make([]LabeledPoint, len(d.Parts[i]))
			slab := make([]float64, len(out)*dim)
			for j, p := range d.Parts[i] {
				f := slab[j*dim : (j+1)*dim : (j+1)*dim]
				copy(f, p.Features)
				f[dim-1] = 1
				out[j] = LabeledPoint{Label: p.Label, Features: f}
			}
			parts[i] = out
			return nil
		}); err != nil {
			return nil, 0, err
		}
	}

	w := make([]float64, dim)
	grads := make([][]float64, len(parts))
	counts := make([]int, len(parts))
	for i := range grads {
		grads[i] = make([]float64, dim)
	}
	rngs := make([]*rand.Rand, len(parts))
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
	}

	for iter := 1; iter <= cfg.Iterations; iter++ {
		if err := hadoopfmt.RunTasks(len(parts), func(i, _ int) error {
			g := grads[i]
			for j := range g {
				g[j] = 0
			}
			counts[i] = 0
			for _, p := range parts[i] {
				if cfg.MiniBatchFraction < 1 && rngs[i].Float64() >= cfg.MiniBatchFraction {
					continue
				}
				gf(w, p, g)
				counts[i]++
			}
			return nil
		}); err != nil {
			return nil, 0, err
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		if total == 0 {
			continue
		}
		step := cfg.StepSize / math.Sqrt(float64(iter))
		for j := range w {
			var g float64
			for i := range grads {
				g += grads[i][j]
			}
			g /= float64(total)
			reg := cfg.RegParam * w[j]
			if cfg.AddIntercept && j == dim-1 {
				reg = 0 // never regularize the intercept
			}
			w[j] -= step * (g + reg)
		}
	}

	if cfg.AddIntercept {
		return w[:dim-1], w[dim-1], nil
	}
	return w, 0, nil
}

func dot(a, b []float64) float64 {
	s := 0.0
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

func checkBinaryLabels(d *Dataset) error {
	for _, part := range d.Parts {
		for _, p := range part {
			if p.Label != 0 && p.Label != 1 {
				return fmt.Errorf("ml: binary classifier requires 0/1 labels, found %v (remap recoded labels via LabelTransform)", p.Label)
			}
		}
	}
	return nil
}

// Accuracy evaluates a classifier over a dataset in parallel.
func Accuracy(d *Dataset, predict func([]float64) float64) float64 {
	correct := make([]int, len(d.Parts))
	hadoopfmt.RunTasks(len(d.Parts), func(i, _ int) error {
		for _, p := range d.Parts[i] {
			if predict(p.Features) == p.Label {
				correct[i]++
			}
		}
		return nil
	})
	total := d.NumRows()
	if total == 0 {
		return 0
	}
	sum := 0
	for _, c := range correct {
		sum += c
	}
	return float64(sum) / float64(total)
}

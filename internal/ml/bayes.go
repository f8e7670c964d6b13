package ml

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"sqlml/internal/hadoopfmt"
)

// NaiveBayesModel is a multinomial naive Bayes classifier: the model family
// Mahout and MLlib ship for count-like (e.g. dummy-coded) features.
type NaiveBayesModel struct {
	// Labels holds the class labels in sorted order.
	Labels []float64
	// Priors[c] is log P(class c).
	Priors []float64
	// Theta[c][j] is log P(feature j | class c).
	Theta [][]float64
}

// TrainNaiveBayes fits a multinomial naive Bayes model with Laplace
// smoothing lambda. Features must be non-negative. Per-class sums are
// computed per partition in parallel and merged — one distributed pass.
func TrainNaiveBayes(d *Dataset, lambda float64) (*NaiveBayesModel, error) {
	if d.NumRows() == 0 {
		return nil, fmt.Errorf("ml: empty dataset")
	}
	if lambda <= 0 {
		return nil, fmt.Errorf("ml: smoothing lambda must be positive")
	}
	partials := make([]classes, len(d.Parts))
	if err := hadoopfmt.RunTasks(len(d.Parts), func(i, _ int) error {
		m := make(classes)
		for _, p := range d.Parts[i] {
			for _, x := range p.Features {
				if x < 0 {
					return fmt.Errorf("ml: multinomial naive Bayes requires non-negative features, found %v", x)
				}
			}
			m.add(p.Label, 1, p.Features)
		}
		partials[i] = m
		return nil
	}); err != nil {
		return nil, err
	}

	merged := make(classes)
	for _, m := range partials {
		for label, cs := range m {
			merged.add(label, cs.count, cs.sums)
		}
	}
	return merged.model(lambda), nil
}

// classStats is one class's row count and per-feature sums.
type classStats struct {
	label float64
	count int64
	sums  []float64
}

// classes maps each class label to its statistics. Both naive Bayes
// trainers accumulate them, in memory per partition or from the MapReduce
// job's output, and build the model from them.
type classes map[float64]*classStats

// add counts count rows of class label whose features sum to sums.
func (m classes) add(label float64, count int64, sums []float64) {
	cs := m[label]
	if cs == nil {
		cs = &classStats{label: label, sums: make([]float64, len(sums))}
		m[label] = cs
	}
	cs.count += count
	for j, s := range sums {
		cs.sums[j] += s
	}
}

// model builds the classifier, labels ascending: log priors over the
// total count and Laplace-smoothed (lambda) log feature probabilities.
func (m classes) model(lambda float64) *NaiveBayesModel {
	var total int64
	sorted := make([]*classStats, 0, len(m))
	for _, cs := range m {
		sorted = append(sorted, cs)
		total += cs.count
	}
	slices.SortFunc(sorted, func(a, b *classStats) int { return cmp.Compare(a.label, b.label) })
	model := &NaiveBayesModel{}
	for _, cs := range sorted {
		model.Labels = append(model.Labels, cs.label)
		model.Priors = append(model.Priors, math.Log(float64(cs.count)/float64(total)))
		rowSum := 0.0
		for _, s := range cs.sums {
			rowSum += s
		}
		theta := make([]float64, len(cs.sums))
		denom := math.Log(rowSum + lambda*float64(len(cs.sums)))
		for j, s := range cs.sums {
			theta[j] = math.Log(s+lambda) - denom
		}
		model.Theta = append(model.Theta, theta)
	}
	return model
}

// Predict returns the most likely class label.
func (m *NaiveBayesModel) Predict(x []float64) float64 {
	best, bestScore := 0, math.Inf(-1)
	for c := range m.Labels {
		score := m.Priors[c]
		for j, v := range x {
			score += v * m.Theta[c][j]
		}
		if score > bestScore {
			best, bestScore = c, score
		}
	}
	return m.Labels[best]
}

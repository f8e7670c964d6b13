package ml

import (
	"fmt"
	"math"
	"sort"

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
	dim := d.NumFeatures

	type classStats struct {
		count int64
		sums  []float64
	}
	partials := make([]map[float64]*classStats, len(d.Parts))
	if err := hadoopfmt.RunTasks(len(d.Parts), func(i, _ int) error {
		m := make(map[float64]*classStats)
		for _, p := range d.Parts[i] {
			cs := m[p.Label]
			if cs == nil {
				cs = &classStats{sums: make([]float64, dim)}
				m[p.Label] = cs
			}
			cs.count++
			for j, x := range p.Features {
				if x < 0 {
					return fmt.Errorf("ml: multinomial naive Bayes requires non-negative features, found %v", x)
				}
				cs.sums[j] += x
			}
		}
		partials[i] = m
		return nil
	}); err != nil {
		return nil, err
	}

	merged := make(map[float64]*classStats)
	for _, m := range partials {
		for label, cs := range m {
			mc := merged[label]
			if mc == nil {
				mc = &classStats{sums: make([]float64, dim)}
				merged[label] = mc
			}
			mc.count += cs.count
			for j, s := range cs.sums {
				mc.sums[j] += s
			}
		}
	}

	labels := make([]float64, 0, len(merged))
	for l := range merged {
		labels = append(labels, l)
	}
	sort.Float64s(labels)

	model := &NaiveBayesModel{Labels: labels}
	total := float64(d.NumRows())
	for _, l := range labels {
		cs := merged[l]
		model.Priors = append(model.Priors, math.Log(float64(cs.count)/total))
		rowSum := 0.0
		for _, s := range cs.sums {
			rowSum += s
		}
		theta := make([]float64, dim)
		denom := math.Log(rowSum + lambda*float64(dim))
		for j, s := range cs.sums {
			theta[j] = math.Log(s+lambda) - denom
		}
		model.Theta = append(model.Theta, theta)
	}
	return model, nil
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

package ml

import (
	"fmt"
	"math/rand"
	"sort"
)

// BinaryMetrics summarises a binary classifier's quality on a dataset.
type BinaryMetrics struct {
	TruePositives  int
	TrueNegatives  int
	FalsePositives int
	FalseNegatives int
}

// EvaluateBinary computes the confusion matrix of a 0/1 classifier over a
// dataset, in parallel across partitions.
func EvaluateBinary(d *Dataset, predict func([]float64) float64) BinaryMetrics {
	partial := make([]BinaryMetrics, len(d.Parts))
	runAll(len(d.Parts), func(i int) error {
		m := &partial[i]
		for _, p := range d.Parts[i] {
			pos := predict(p.Features) >= 0.5
			truth := p.Label >= 0.5
			switch {
			case pos && truth:
				m.TruePositives++
			case pos && !truth:
				m.FalsePositives++
			case !pos && truth:
				m.FalseNegatives++
			default:
				m.TrueNegatives++
			}
		}
		return nil
	})
	var out BinaryMetrics
	for _, m := range partial {
		out.TruePositives += m.TruePositives
		out.TrueNegatives += m.TrueNegatives
		out.FalsePositives += m.FalsePositives
		out.FalseNegatives += m.FalseNegatives
	}
	return out
}

// Total returns the number of evaluated examples.
func (m BinaryMetrics) Total() int {
	return m.TruePositives + m.TrueNegatives + m.FalsePositives + m.FalseNegatives
}

// Accuracy returns (TP+TN)/total.
func (m BinaryMetrics) Accuracy() float64 {
	t := m.Total()
	if t == 0 {
		return 0
	}
	return float64(m.TruePositives+m.TrueNegatives) / float64(t)
}

// Precision returns TP/(TP+FP); 0 when nothing was predicted positive.
func (m BinaryMetrics) Precision() float64 {
	d := m.TruePositives + m.FalsePositives
	if d == 0 {
		return 0
	}
	return float64(m.TruePositives) / float64(d)
}

// Recall returns TP/(TP+FN); 0 when no positives exist.
func (m BinaryMetrics) Recall() float64 {
	d := m.TruePositives + m.FalseNegatives
	if d == 0 {
		return 0
	}
	return float64(m.TruePositives) / float64(d)
}

// F1 returns the harmonic mean of precision and recall.
func (m BinaryMetrics) F1() float64 {
	p, r := m.Precision(), m.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the matrix and derived scores.
func (m BinaryMetrics) String() string {
	return fmt.Sprintf("tp=%d tn=%d fp=%d fn=%d acc=%.3f prec=%.3f rec=%.3f f1=%.3f",
		m.TruePositives, m.TrueNegatives, m.FalsePositives, m.FalseNegatives,
		m.Accuracy(), m.Precision(), m.Recall(), m.F1())
}

// AUC computes the area under the ROC curve for a scoring function (higher
// score = more positive). Ties are handled by the rank-sum formulation.
func AUC(d *Dataset, score func([]float64) float64) float64 {
	type scored struct {
		s   float64
		pos bool
	}
	var all []scored
	for _, part := range d.Parts {
		for _, p := range part {
			all = append(all, scored{s: score(p.Features), pos: p.Label >= 0.5})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].s < all[j].s })
	// Mean ranks over tie groups.
	ranks := make([]float64, len(all))
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].s == all[i].s {
			j++
		}
		mean := float64(i+j+1) / 2 // 1-based average rank of the tie group
		for k := i; k < j; k++ {
			ranks[k] = mean
		}
		i = j
	}
	var posRankSum float64
	var nPos, nNeg int
	for i, s := range all {
		if s.pos {
			posRankSum += ranks[i]
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	return (posRankSum - float64(nPos)*(float64(nPos)+1)/2) / (float64(nPos) * float64(nNeg))
}

// TrainTestSplit partitions a dataset into train and test sets by sampling
// each point into test with probability testFraction (seeded, per
// partition, preserving the distributed layout).
func TrainTestSplit(d *Dataset, testFraction float64, seed int64) (train, test *Dataset, err error) {
	if testFraction <= 0 || testFraction >= 1 {
		return nil, nil, fmt.Errorf("ml: test fraction must be in (0,1)")
	}
	train = &Dataset{Parts: make([][]LabeledPoint, len(d.Parts)), Nodes: d.Nodes, NumFeatures: d.NumFeatures}
	test = &Dataset{Parts: make([][]LabeledPoint, len(d.Parts)), Nodes: d.Nodes, NumFeatures: d.NumFeatures}
	runAll(len(d.Parts), func(i int) error {
		rng := rand.New(rand.NewSource(seed + int64(i)*104729))
		for _, p := range d.Parts[i] {
			if rng.Float64() < testFraction {
				test.Parts[i] = append(test.Parts[i], p)
			} else {
				train.Parts[i] = append(train.Parts[i], p)
			}
		}
		return nil
	})
	return train, test, nil
}

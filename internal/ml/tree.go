package ml

import (
	"fmt"
	"math"

	"sqlml/internal/hadoopfmt"
)

// TreeConfig configures decision-tree training.
type TreeConfig struct {
	MaxDepth int
	// MaxBins is the number of candidate thresholds per feature (equal
	// width over the feature's observed range), the histogram trick MLlib
	// uses to keep split search distributed.
	MaxBins int
	// MinGain prunes splits whose Gini gain is below the threshold.
	MinGain float64
}

// DefaultTree returns MLlib-like defaults.
func DefaultTree() TreeConfig {
	return TreeConfig{MaxDepth: 5, MaxBins: 32, MinGain: 1e-9}
}

// TreeNode is one node of a trained decision tree.
type TreeNode struct {
	// Leaf prediction (majority class) when Left/Right are nil.
	Prediction float64
	// Internal split: go Left when Features[Feature] <= Threshold.
	Feature   int
	Threshold float64
	Left      *TreeNode
	Right     *TreeNode
}

// IsLeaf reports whether the node is terminal.
func (n *TreeNode) IsLeaf() bool { return n.Left == nil }

// DecisionTreeModel is a trained classification tree.
type DecisionTreeModel struct {
	Root   *TreeNode
	Depth  int
	Labels []float64
}

// Predict returns the class label for a feature vector.
func (m *DecisionTreeModel) Predict(x []float64) float64 {
	n := m.Root
	for !n.IsLeaf() {
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Prediction
}

// TrainDecisionTree fits a Gini-impurity classification tree level by
// level: each level computes per-partition class histograms for every
// (open node, feature, bin) in parallel, merges them, and picks the best
// split per node — the distributed histogram strategy of MLlib's trees.
func TrainDecisionTree(d *Dataset, cfg TreeConfig) (*DecisionTreeModel, error) {
	if d.NumRows() == 0 {
		return nil, fmt.Errorf("ml: empty dataset")
	}
	if cfg.MaxDepth < 1 || cfg.MaxBins < 2 {
		return nil, fmt.Errorf("ml: need MaxDepth >= 1 and MaxBins >= 2")
	}
	dim := d.NumFeatures

	// Class index assignment (distributed label discovery).
	labelSets := make([]map[float64]bool, len(d.Parts))
	hadoopfmt.RunTasks(len(d.Parts), func(i, _ int) error {
		s := make(map[float64]bool)
		for _, p := range d.Parts[i] {
			s[p.Label] = true
		}
		labelSets[i] = s
		return nil
	})
	labelIdx := make(map[float64]int)
	var labels []float64
	for _, s := range labelSets {
		for l := range s {
			if _, ok := labelIdx[l]; !ok {
				labelIdx[l] = 0
				labels = append(labels, l)
			}
		}
	}
	sortFloats(labels)
	for i, l := range labels {
		labelIdx[l] = i
	}
	numClasses := len(labels)

	// Candidate thresholds: equal-width bins over each feature's range.
	mins := make([]float64, dim)
	maxs := make([]float64, dim)
	for j := range mins {
		mins[j], maxs[j] = math.Inf(1), math.Inf(-1)
	}
	partMins := make([][]float64, len(d.Parts))
	partMaxs := make([][]float64, len(d.Parts))
	hadoopfmt.RunTasks(len(d.Parts), func(i, _ int) error {
		mn := make([]float64, dim)
		mx := make([]float64, dim)
		for j := range mn {
			mn[j], mx[j] = math.Inf(1), math.Inf(-1)
		}
		for _, p := range d.Parts[i] {
			for j, x := range p.Features {
				if x < mn[j] {
					mn[j] = x
				}
				if x > mx[j] {
					mx[j] = x
				}
			}
		}
		partMins[i], partMaxs[i] = mn, mx
		return nil
	})
	for i := range d.Parts {
		for j := 0; j < dim; j++ {
			if partMins[i][j] < mins[j] {
				mins[j] = partMins[i][j]
			}
			if partMaxs[i][j] > maxs[j] {
				maxs[j] = partMaxs[i][j]
			}
		}
	}
	thresholds := make([][]float64, dim)
	for j := 0; j < dim; j++ {
		if !(maxs[j] > mins[j]) {
			continue // constant feature: no usable splits
		}
		width := (maxs[j] - mins[j]) / float64(cfg.MaxBins)
		for b := 1; b < cfg.MaxBins; b++ {
			thresholds[j] = append(thresholds[j], mins[j]+width*float64(b))
		}
	}

	// Level-by-level growth. nodeOf[i][k] tracks which open node row k of
	// partition i currently belongs to (-1 once settled in a leaf).
	root := &TreeNode{}
	open := []*TreeNode{root}
	assign := make([][]*TreeNode, len(d.Parts))
	hadoopfmt.RunTasks(len(d.Parts), func(i, _ int) error {
		a := make([]*TreeNode, len(d.Parts[i]))
		for k := range a {
			a[k] = root
		}
		assign[i] = a
		return nil
	})

	depth := 0
	for len(open) > 0 && depth < cfg.MaxDepth {
		nodeIdx := make(map[*TreeNode]int, len(open))
		for i, n := range open {
			nodeIdx[n] = i
		}
		// hist[node][feature][bin][class] counts points with value <= the
		// bin's threshold; totals[node][class] counts all node points.
		type levelStats struct {
			hist   [][][]int64
			totals [][]int64
		}
		partStats := make([]*levelStats, len(d.Parts))
		hadoopfmt.RunTasks(len(d.Parts), func(i, _ int) error {
			ls := &levelStats{
				hist:   make([][][]int64, len(open)),
				totals: make([][]int64, len(open)),
			}
			for n := range ls.hist {
				ls.hist[n] = make([][]int64, dim)
				for j := 0; j < dim; j++ {
					ls.hist[n][j] = make([]int64, len(thresholds[j])*numClasses)
				}
				ls.totals[n] = make([]int64, numClasses)
			}
			for k, p := range d.Parts[i] {
				node := assign[i][k]
				if node == nil {
					continue
				}
				ni, ok := nodeIdx[node]
				if !ok {
					continue
				}
				ci := labelIdx[p.Label]
				ls.totals[ni][ci]++
				for j, x := range p.Features {
					for b, thr := range thresholds[j] {
						if x <= thr {
							ls.hist[ni][j][b*numClasses+ci]++
						}
					}
				}
			}
			partStats[i] = ls
			return nil
		})
		// Merge partials.
		merged := partStats[0]
		for _, ls := range partStats[1:] {
			for n := range merged.hist {
				for j := range merged.hist[n] {
					for z := range merged.hist[n][j] {
						merged.hist[n][j][z] += ls.hist[n][j][z]
					}
				}
				for c := range merged.totals[n] {
					merged.totals[n][c] += ls.totals[n][c]
				}
			}
		}

		// Pick the best split per open node.
		var nextOpen []*TreeNode
		split := make(map[*TreeNode]bool, len(open))
		for ni, node := range open {
			totals := merged.totals[ni]
			var totalCount int64
			for _, c := range totals {
				totalCount += c
			}
			node.Prediction = majority(labels, totals)
			if totalCount == 0 {
				continue
			}
			parentGini := gini(totals, totalCount)
			bestGain, bestFeature, bestThr := cfg.MinGain, -1, 0.0
			left := make([]int64, numClasses)
			right := make([]int64, numClasses)
			for j := 0; j < dim; j++ {
				for b, thr := range thresholds[j] {
					var lc, rc int64
					for c := 0; c < numClasses; c++ {
						l := merged.hist[ni][j][b*numClasses+c]
						left[c] = l
						right[c] = totals[c] - l
						lc += l
						rc += totals[c] - l
					}
					if lc == 0 || rc == 0 {
						continue
					}
					gain := parentGini -
						(float64(lc)/float64(totalCount))*gini(left, lc) -
						(float64(rc)/float64(totalCount))*gini(right, rc)
					if gain > bestGain {
						bestGain, bestFeature, bestThr = gain, j, thr
					}
				}
			}
			if bestFeature < 0 {
				continue
			}
			node.Feature = bestFeature
			node.Threshold = bestThr
			node.Left = &TreeNode{}
			node.Right = &TreeNode{}
			split[node] = true
			nextOpen = append(nextOpen, node.Left, node.Right)
		}

		// Route points into the children.
		hadoopfmt.RunTasks(len(d.Parts), func(i, _ int) error {
			for k, p := range d.Parts[i] {
				node := assign[i][k]
				if node == nil || !split[node] {
					if node != nil && node.IsLeaf() {
						assign[i][k] = nil
					}
					continue
				}
				if p.Features[node.Feature] <= node.Threshold {
					assign[i][k] = node.Left
				} else {
					assign[i][k] = node.Right
				}
			}
			return nil
		})
		open = nextOpen
		depth++
	}

	// Finalize any still-open nodes as leaves with majority predictions.
	if len(open) > 0 {
		nodeIdx := make(map[*TreeNode]int, len(open))
		for i, n := range open {
			nodeIdx[n] = i
		}
		totals := make([][]int64, len(open))
		for i := range totals {
			totals[i] = make([]int64, numClasses)
		}
		for i := range d.Parts {
			for k, p := range d.Parts[i] {
				if node := assign[i][k]; node != nil {
					if ni, ok := nodeIdx[node]; ok {
						totals[ni][labelIdx[p.Label]]++
					}
				}
			}
		}
		for i, n := range open {
			n.Prediction = majority(labels, totals[i])
		}
	}
	return &DecisionTreeModel{Root: root, Depth: depth, Labels: labels}, nil
}

func gini(counts []int64, total int64) float64 {
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(total)
		g -= p * p
	}
	return g
}

func majority(labels []float64, counts []int64) float64 {
	best, bestC := 0, int64(-1)
	for i, c := range counts {
		if c > bestC {
			best, bestC = i, c
		}
	}
	if len(labels) == 0 {
		return 0
	}
	return labels[best]
}

func sortFloats(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

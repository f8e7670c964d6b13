package ml

import (
	"math"
	"testing"
)

func TestEvaluateBinaryConfusionMatrix(t *testing.T) {
	d := &Dataset{Parts: [][]LabeledPoint{{
		{Label: 1, Features: []float64{1}}, // predicted 1 → TP
		{Label: 1, Features: []float64{0}}, // predicted 0 → FN
		{Label: 0, Features: []float64{1}}, // predicted 1 → FP
		{Label: 0, Features: []float64{0}}, // predicted 0 → TN
		{Label: 0, Features: []float64{0}}, // TN
	}}, NumFeatures: 1}
	m := EvaluateBinary(d, func(x []float64) float64 { return x[0] })
	if m.TruePositives != 1 || m.FalseNegatives != 1 || m.FalsePositives != 1 || m.TrueNegatives != 2 {
		t.Fatalf("matrix = %+v", m)
	}
	if m.Total() != 5 {
		t.Errorf("total = %d", m.Total())
	}
	if math.Abs(m.Accuracy()-0.6) > 1e-12 {
		t.Errorf("accuracy = %v", m.Accuracy())
	}
	if math.Abs(m.Precision()-0.5) > 1e-12 || math.Abs(m.Recall()-0.5) > 1e-12 {
		t.Errorf("precision/recall = %v/%v", m.Precision(), m.Recall())
	}
	if math.Abs(m.F1()-0.5) > 1e-12 {
		t.Errorf("f1 = %v", m.F1())
	}
}

func TestMetricsDegenerateCases(t *testing.T) {
	empty := BinaryMetrics{}
	if empty.Accuracy() != 0 || empty.Precision() != 0 || empty.Recall() != 0 || empty.F1() != 0 {
		t.Error("empty metrics should be zero, not NaN")
	}
}

func TestAUCPerfectAndRandom(t *testing.T) {
	// Perfect separation: AUC = 1.
	d := &Dataset{Parts: [][]LabeledPoint{{
		{Label: 0, Features: []float64{0.1}},
		{Label: 0, Features: []float64{0.2}},
		{Label: 1, Features: []float64{0.8}},
		{Label: 1, Features: []float64{0.9}},
	}}, NumFeatures: 1}
	if auc := AUC(d, func(x []float64) float64 { return x[0] }); math.Abs(auc-1) > 1e-12 {
		t.Errorf("perfect AUC = %v", auc)
	}
	// Inverted scores: AUC = 0.
	if auc := AUC(d, func(x []float64) float64 { return -x[0] }); math.Abs(auc) > 1e-12 {
		t.Errorf("inverted AUC = %v", auc)
	}
	// Constant scores (all tied): AUC = 0.5.
	if auc := AUC(d, func([]float64) float64 { return 7 }); math.Abs(auc-0.5) > 1e-12 {
		t.Errorf("tied AUC = %v", auc)
	}
	// Single class: 0.5 by convention.
	one := &Dataset{Parts: [][]LabeledPoint{{{Label: 1, Features: []float64{1}}}}, NumFeatures: 1}
	if auc := AUC(one, func(x []float64) float64 { return x[0] }); auc != 0.5 {
		t.Errorf("single-class AUC = %v", auc)
	}
}

func TestAUCAgainstTrainedModel(t *testing.T) {
	d := syntheticBinary(2000, 4, 21)
	m, err := TrainLogisticRegressionWithSGD(d, DefaultSGD())
	if err != nil {
		t.Fatal(err)
	}
	if auc := AUC(d, m.Margin); auc < 0.95 {
		t.Errorf("trained model AUC = %v", auc)
	}
}

func TestTrainTestSplit(t *testing.T) {
	d := syntheticBinary(5000, 4, 22)
	train, test, err := TrainTestSplit(d, 0.25, 99)
	if err != nil {
		t.Fatal(err)
	}
	if train.NumRows()+test.NumRows() != d.NumRows() {
		t.Fatalf("split lost rows: %d + %d != %d", train.NumRows(), test.NumRows(), d.NumRows())
	}
	frac := float64(test.NumRows()) / float64(d.NumRows())
	if frac < 0.2 || frac > 0.3 {
		t.Errorf("test fraction = %.3f, want ~0.25", frac)
	}
	// Deterministic.
	train2, test2, _ := TrainTestSplit(d, 0.25, 99)
	if train2.NumRows() != train.NumRows() || test2.NumRows() != test.NumRows() {
		t.Error("split not deterministic for a fixed seed")
	}
	if _, _, err := TrainTestSplit(d, 0, 1); err == nil {
		t.Error("zero test fraction accepted")
	}
	if _, _, err := TrainTestSplit(d, 1, 1); err == nil {
		t.Error("test fraction 1 accepted")
	}
}

func TestHeldOutEvaluationWorkflow(t *testing.T) {
	d := syntheticBinary(4000, 4, 23)
	train, test, err := TrainTestSplit(d, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	model, err := TrainSVMWithSGD(train, DefaultSGD())
	if err != nil {
		t.Fatal(err)
	}
	m := EvaluateBinary(test, model.Predict)
	if m.Accuracy() < 0.9 {
		t.Errorf("held-out accuracy = %.3f: %s", m.Accuracy(), m)
	}
}

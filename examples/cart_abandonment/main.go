// Cart abandonment: the paper's §1 motivating scenario end to end, at
// simulation scale — an online retailer's carts and users tables live as
// text files on the (simulated) DFS; an analyst prepares training data
// with a SQL join, recodes and dummy-codes the categorical variables
// In-SQL, streams the result to the ML engine through the coordinator
// (never touching the file system), and builds an SVM classifier for
// shopping-cart abandonment.
//
//	go run ./examples/cart_abandonment
package main

import (
	"fmt"
	"log"
	"time"

	"sqlml/internal/core"
	"sqlml/internal/datagen"
	"sqlml/internal/experiments"
	"sqlml/internal/ml"
	"sqlml/internal/transform"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Deployment: 5 nodes, DFS with 3-way replication, and the experiments'
	// calibrated cost model accumulating simulated time, so the printed
	// cluster seconds mean something.
	cfg := core.DefaultEnvConfig()
	cfg.Cost = experiments.CalibratedCost()
	env, err := core.NewEnv(cfg)
	if err != nil {
		return err
	}
	defer env.Close()

	// The warehouse: synthetic carts (100 per user) and users tables in
	// text format on the DFS, exactly the §7 setup at 1:2000 scale.
	data, err := datagen.Generate(datagen.Config{Users: 500, CartsPerUser: 100, Seed: 42})
	if err != nil {
		return err
	}
	usersPath, cartsPath, err := datagen.WriteToDFS(data, env.FS, "/warehouse", env.Topo.Node(1))
	if err != nil {
		return err
	}
	if err := env.Engine.RegisterExternalTable("users", env.FS, usersPath, datagen.UsersSchema()); err != nil {
		return err
	}
	if err := env.Engine.RegisterExternalTable("carts", env.FS, cartsPath, datagen.CartsSchema()); err != nil {
		return err
	}
	fmt.Printf("warehouse: %d users, %d carts on the DFS\n", len(data.Users), len(data.Carts))

	// The §1 preparation query + transformation, streamed to ML (the
	// insql+stream approach — Figure 3's winner). Beyond the paper's
	// recode+dummy steps, age and amount are standardized In-SQL so the
	// SGD steps are well conditioned.
	pipeline := core.PipelineConfig{
		Query: `
			SELECT U.age, U.gender, C.amount, C.abandoned
			FROM carts C, users U
			WHERE C.userid=U.userid AND U.country='USA'`,
		Spec: transform.Spec{
			RecodeCols: []string{"gender", "abandoned"},
			CodeCols:   []string{"gender"},
			Coding:     transform.CodingDummy,
			ScaleCols:  []string{"age", "amount"},
			Scaling:    transform.ScalingStandard,
		},
		LabelCol:       "abandoned",
		LabelTransform: func(v float64) float64 { return v - 1 },
		K:              2,
	}
	res, err := core.Run(env, core.InSQLStream, pipeline)
	if err != nil {
		return err
	}
	fmt.Printf("pipeline: %d training rows streamed into %d ML partitions (wall %s, simulated cluster time %s)\n",
		res.Rows, len(res.Dataset.Parts),
		res.Timings.Total.Round(time.Millisecond),
		env.Cost.Stats().SimulatedTime.Round(time.Microsecond))

	// Train on 70%, evaluate on held-out 30%.
	train, test, err := ml.TrainTestSplit(res.Dataset, 0.3, 1)
	if err != nil {
		return err
	}
	sgd := ml.DefaultSGD()
	sgd.Iterations = 200
	sgd.StepSize = 0.1
	model, err := ml.TrainSVMWithSGD(train, sgd)
	if err != nil {
		return err
	}
	m := ml.EvaluateBinary(test, model.Predict)
	fmt.Printf("SVM abandonment classifier (held-out): %s\n", m)
	fmt.Printf("held-out AUC: %.3f\n", ml.AUC(test, model.Margin))

	// The same prepared data serves other classifiers without re-running
	// the pipeline — the use case §5.1 motivates caching with.
	bayesData := res.Dataset
	nb, err := ml.TrainNaiveBayes(scaleNonNeg(bayesData), 1.0)
	if err != nil {
		return err
	}
	fmt.Printf("naive Bayes on the same data: train accuracy %.3f\n",
		ml.Accuracy(scaleNonNeg(bayesData), nb.Predict))
	tree, err := ml.TrainDecisionTree(res.Dataset, ml.DefaultTree())
	if err != nil {
		return err
	}
	fmt.Printf("decision tree (depth %d): train accuracy %.3f\n",
		tree.Depth, ml.Accuracy(res.Dataset, tree.Predict))
	return nil
}

// scaleNonNeg clips features to be non-negative for multinomial naive
// Bayes (ages and dummy bits already are; amounts too).
func scaleNonNeg(d *ml.Dataset) *ml.Dataset {
	out := &ml.Dataset{Parts: make([][]ml.LabeledPoint, len(d.Parts)), Nodes: d.Nodes, NumFeatures: d.NumFeatures}
	for i, part := range d.Parts {
		np := make([]ml.LabeledPoint, len(part))
		for j, p := range part {
			f := make([]float64, len(p.Features))
			for k, x := range p.Features {
				if x < 0 {
					x = 0
				}
				f[k] = x
			}
			np[j] = ml.LabeledPoint{Label: p.Label, Features: f}
		}
		out.Parts[i] = np
	}
	return out
}

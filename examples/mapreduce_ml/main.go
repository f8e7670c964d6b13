// MapReduce ML: the genericity claim in action — the same parallel
// streaming transfer that feeds the in-memory ML engine feeds a completely
// different ML system (a Mahout-style naive Bayes trained as a MapReduce
// job) with zero changes to the transfer: the MapReduce job simply uses
// the SQLStreamInputFormat as its input, because "any big ML system that
// uses Hadoop InputFormats to ingest input data" is supported.
//
//	go run ./examples/mapreduce_ml
package main

import (
	"fmt"
	"log"

	"sqlml/internal/core"
	"sqlml/internal/datagen"
	"sqlml/internal/experiments"
	"sqlml/internal/mapred"
	"sqlml/internal/ml"
	"sqlml/internal/stream"
	"sqlml/internal/transform"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := core.DefaultEnvConfig()
	cfg.Cost = experiments.CalibratedCost()
	env, err := core.NewEnv(cfg)
	if err != nil {
		return err
	}
	defer env.Close()

	data, err := datagen.Generate(datagen.Config{Users: 300, CartsPerUser: 40, Seed: 5})
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

	// Prepare + transform In-SQL, as always.
	prep, err := env.Engine.Query(`
		SELECT U.age, U.gender, C.amount, C.abandoned
		FROM carts C, users U
		WHERE C.userid=U.userid AND U.country='USA'`)
	if err != nil {
		return err
	}
	if err := env.Engine.RegisterResult("prep", prep); err != nil {
		return err
	}
	out, err := transform.Apply(env.Engine, "prep", transform.Spec{
		RecodeCols: []string{"gender", "abandoned"},
		CodeCols:   []string{"gender"},
		Coding:     transform.CodingDummy,
	}, nil)
	if err != nil {
		return err
	}
	if err := env.Engine.RegisterResult("prepared", out.Result); err != nil {
		return err
	}
	fmt.Printf("prepared %d rows: %s\n", out.Result.NumRows(), out.Result.Schema)

	// ML side: a MapReduce-trained naive Bayes whose ONLY coupling to the
	// SQL side is the InputFormat. It asks the coordinator for its splits
	// (the customized getInputSplits), its map tasks are the stream
	// consumers, and the job writes its model statistics to the DFS.
	job := "mr-naive-bayes"
	type result struct {
		model *ml.NaiveBayesModel
		err   error
	}
	done := make(chan result, 1)
	go func() {
		f := &stream.InputFormat{CoordAddr: env.CoordAddr, Job: job}
		model, err := ml.TrainNaiveBayesMR(mapred.Cluster{
			Topo:      env.Topo,
			FS:        env.FS,
			Cost:      env.Cost,
			TaskNodes: env.WorkerIDs,
		}, f, ml.IngestOptions{
			LabelCol:       "abandoned",
			LabelTransform: func(v float64) float64 { return v - 1 },
			Nodes:          env.WorkerNodes(),
		}, 1.0, "/models/nb")
		done <- result{model, err}
	}()

	// SQL side: stream the prepared table to whatever registered for the
	// job — it neither knows nor cares that the consumer is MapReduce.
	sendSQL := fmt.Sprintf(
		"SELECT * FROM TABLE(stream_send(prepared, '%s', '%s', 'naive-bayes', 1))",
		env.CoordAddr, job)
	if _, err := env.Engine.Query(sendSQL); err != nil {
		return err
	}
	res := <-done
	if res.err != nil {
		return res.err
	}
	fmt.Printf("MapReduce naive Bayes trained: %d classes, model stats on DFS under /models/nb\n",
		len(res.model.Labels))
	for _, f := range env.FS.List("/models/nb") {
		fmt.Printf("  %s\n", f)
	}

	// Sanity: the model classifies the training distribution better than
	// chance (evaluated through the in-memory engine for convenience).
	eval, err := core.Run(env, core.InSQL, core.PipelineConfig{
		Query: `
			SELECT U.age, U.gender, C.amount, C.abandoned
			FROM carts C, users U
			WHERE C.userid=U.userid AND U.country='USA'`,
		Spec: transform.Spec{
			RecodeCols: []string{"gender", "abandoned"},
			CodeCols:   []string{"gender"},
			Coding:     transform.CodingDummy,
		},
		LabelCol:       "abandoned",
		LabelTransform: func(v float64) float64 { return v - 1 },
	})
	if err != nil {
		return err
	}
	fmt.Printf("train accuracy: %.3f\n", ml.Accuracy(eval.Dataset, res.model.Predict))
	return nil
}

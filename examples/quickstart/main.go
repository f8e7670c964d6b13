// Quickstart: the smallest end-to-end use of the library — load two tiny
// tables into the MPP SQL engine, run the paper's preparation query,
// transform the result In-SQL (recode + dummy code in one join query), and
// train an SVM on the outcome.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"sqlml/internal/cluster"
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/ml"
	"sqlml/internal/row"
	"sqlml/internal/sqlengine"
	"sqlml/internal/transform"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A 5-node simulated cluster: node 0 is the SQL head node, nodes 1-4
	// host one SQL worker each (the paper's testbed layout).
	topo := cluster.NewTopology(5)
	engine, err := sqlengine.New(topo, nil, sqlengine.Config{
		HeadNodeID:    0,
		WorkerNodeIDs: []int{1, 2, 3, 4},
	})
	if err != nil {
		return err
	}
	// Recode phase 1's table UDFs, distinct_values and assign_recode_ids;
	// the codings need none (they are CASE expressions in the recode join).
	if err := transform.RegisterUDFs(engine); err != nil {
		return err
	}

	// Figure 1(a)'s table, extended with a couple more rows.
	schema := row.MustSchema(
		row.Column{Name: "age", Type: row.TypeInt},
		row.Column{Name: "gender", Type: row.TypeString},
		row.Column{Name: "amount", Type: row.TypeFloat},
		row.Column{Name: "abandoned", Type: row.TypeString},
	)
	rows := []row.Row{
		{row.Int(57), row.String_("F"), row.Float(314.62), row.String_("Yes")},
		{row.Int(40), row.String_("M"), row.Float(40.40), row.String_("Yes")},
		{row.Int(35), row.String_("F"), row.Float(151.17), row.String_("No")},
		{row.Int(28), row.String_("M"), row.Float(305.50), row.String_("Yes")},
		{row.Int(64), row.String_("F"), row.Float(12.25), row.String_("No")},
		{row.Int(45), row.String_("M"), row.Float(99.99), row.String_("No")},
	}
	if err := engine.LoadTable("carts", schema, rows); err != nil {
		return err
	}

	// Plain SQL works against the engine.
	res, err := engine.Query("SELECT COUNT(*), AVG(amount) FROM carts WHERE abandoned = 'Yes'")
	if err != nil {
		return err
	}
	fmt.Printf("abandoned carts: count=%v avg amount=%v\n", res.Rows()[0][0], res.Rows()[0][1])

	// The In-SQL transformation: two-phase distributed recoding of the
	// categorical columns, then dummy coding of gender — all as parallel
	// table UDFs inside the engine.
	out, err := transform.Apply(engine, "carts", transform.Spec{
		RecodeCols: []string{"gender", "abandoned"},
		CodeCols:   []string{"gender"},
		Coding:     transform.CodingDummy,
	}, nil)
	if err != nil {
		return err
	}
	defer engine.DropTable(out.MapTable)
	fmt.Printf("transformed schema: %s\n", out.Result.Schema)
	fmt.Printf("recode map: gender has %d levels, abandoned has %d\n",
		out.Map.Cardinality("gender"), out.Map.Cardinality("abandoned"))

	// Hand the transformed rows to the ML engine. Here the handover is the
	// simplest possible InputFormat (an in-memory slice); the streaming
	// examples show the coordinator-mediated transfer.
	dataset, err := ml.Ingest(&hadoopfmt.SliceFormat{
		Rows:      out.Result.Rows(),
		RowSchema: out.Result.Schema,
	}, ml.IngestOptions{
		LabelCol: "abandoned",
		// Recoded labels are {1:'No', 2:'Yes'}; SVM wants {0,1}.
		LabelTransform: func(v float64) float64 { return v - 1 },
		Nodes:          topo.Nodes(),
	})
	if err != nil {
		return err
	}
	model, err := ml.TrainSVMWithSGD(dataset, ml.DefaultSGD())
	if err != nil {
		return err
	}
	fmt.Printf("SVM trained on %d rows x %d features, train accuracy %.2f\n",
		dataset.NumRows(), dataset.NumFeatures, ml.Accuracy(dataset, model.Predict))
	return nil
}

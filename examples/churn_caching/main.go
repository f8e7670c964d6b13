// Churn caching: the §5 scenario — an analyst iterates on related
// preparation queries, and the query rewriter decides per query whether
// the cached fully-transformed result (§5.1), the cached recode maps
// (§5.2), or nothing can be reused. The three queries below are exactly
// the paper's examples.
//
//	go run ./examples/churn_caching
package main

import (
	"fmt"
	"log"

	"sqlml/internal/core"
	"sqlml/internal/datagen"
	"sqlml/internal/experiments"
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

	data, err := datagen.Generate(datagen.Config{Users: 400, CartsPerUser: 50, Seed: 3})
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

	base := core.PipelineConfig{
		Spec: transform.Spec{
			RecodeCols: []string{"gender", "abandoned"},
		},
		LabelCol:       "abandoned",
		LabelTransform: func(v float64) float64 { return v - 1 },
		K:              1,
		Tier:           core.CacheFullResult,
	}

	runOne := func(title, query string, spec transform.Spec, populate bool) error {
		cfg := base
		cfg.Query = query
		cfg.Spec = spec
		cfg.CachePopulate = populate
		env.Cost.ResetStats()
		res, err := core.Run(env, core.InSQLStream, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", title, err)
		}
		fmt.Printf("%-34s cache=%-11s rows=%-6d simulated=%v\n",
			title, res.CacheHit, res.Rows, env.Cost.Stats().SimulatedTime.Round(1000))
		return nil
	}

	// Query 1 (the §1 preparation query) runs cold and populates the cache.
	if err := runOne("1. initial preparation query", `
		SELECT U.age, U.gender, C.amount, C.abandoned
		FROM carts C, users U
		WHERE C.userid=U.userid AND U.country='USA'`,
		base.Spec, true); err != nil {
		return err
	}

	// Query 2 (§5.1's example): same joins and predicates, a projected
	// subset, plus an extra predicate on a projected field → the fully
	// transformed cached result answers it outright.
	if err := runOne("2. subset query (5.1 full reuse)", `
		SELECT U.age, C.amount, C.abandoned
		FROM carts C, users U
		WHERE C.userid=U.userid AND U.country='USA' AND U.gender = 'F'`,
		transform.Spec{RecodeCols: []string{"abandoned"}}, false); err != nil {
		return err
	}

	// Query 3 (§5.2's example): projects a new column (nitems) and filters
	// on a new one (year) → the full result cannot be reused, but the
	// recode maps can, skipping one of recoding's two passes.
	if err := runOne("3. extended query (5.2 map reuse)", `
		SELECT U.age, U.gender, C.amount, C.nItems, C.abandoned
		FROM carts C, users U
		WHERE C.userid=U.userid AND U.country='USA' AND C.year = 2014`,
		base.Spec, false); err != nil {
		return err
	}

	// Query 4: different predicates → the cache cannot help at all.
	if err := runOne("4. unrelated query (miss)", `
		SELECT U.age, U.gender, C.amount, C.abandoned
		FROM carts C, users U
		WHERE C.userid=U.userid AND U.country='Germany'`,
		base.Spec, false); err != nil {
		return err
	}

	stats := env.Cache.Stats()
	fmt.Printf("\ncache store: %d entries; hits by tier: %v\n", env.Cache.Len(), stats)
	return nil
}

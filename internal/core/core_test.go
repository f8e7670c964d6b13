package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"sqlml/internal/cache"
	"sqlml/internal/cluster"
	"sqlml/internal/datagen"
	"sqlml/internal/ml"
	"sqlml/internal/row"
	"sqlml/internal/transform"
)

// paperQuery is the §1 example preparation query.
const paperQuery = `
	SELECT U.age, U.gender, C.amount, C.abandoned
	FROM carts C, users U
	WHERE C.userid=U.userid AND U.country='USA'`

func paperSpec() transform.Spec {
	return transform.Spec{
		RecodeCols: []string{"gender", "abandoned"},
		CodeCols:   []string{"gender"},
		Coding:     transform.CodingDummy,
	}
}

func paperConfig() PipelineConfig {
	return PipelineConfig{
		Query:    paperQuery,
		Spec:     paperSpec(),
		LabelCol: "abandoned",
		// Recoded labels are {1: No, 2: Yes}; SVM wants {0, 1}.
		LabelTransform: func(v float64) float64 { return v - 1 },
		K:              2,
	}
}

// newTestEnv wires a deployment and loads a small paper workload, with the
// input tables stored as external text tables on the DFS (as in §7).
func newTestEnv(t testing.TB, users, cartsPer int, cost *cluster.CostModel) *Env {
	t.Helper()
	cfg := DefaultEnvConfig()
	cfg.Cost = cost
	cfg.BlockSize = 16 << 10
	return startEnv(t, cfg, users, cartsPer)
}

// startEnv builds a deployment from an explicit config (the chaos suite
// arms fault injection through it) and loads the paper workload.
func startEnv(t testing.TB, cfg EnvConfig, users, cartsPer int) *Env {
	t.Helper()
	d, err := datagen.Generate(datagen.Config{Users: users, CartsPerUser: cartsPer, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return startEnvWithData(t, cfg, d)
}

// startEnvWithData is startEnv over caller-supplied tables, for tests that
// plant a value the generator never produces.
func startEnvWithData(t testing.TB, cfg EnvConfig, d *datagen.Dataset) *Env {
	t.Helper()
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)

	usersPath, cartsPath, err := datagen.WriteToDFS(d, env.FS, "/warehouse", env.Topo.Node(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Engine.RegisterExternalTable("users", env.FS, usersPath, datagen.UsersSchema()); err != nil {
		t.Fatal(err)
	}
	if err := env.Engine.RegisterExternalTable("carts", env.FS, cartsPath, datagen.CartsSchema()); err != nil {
		t.Fatal(err)
	}
	return env
}

// datasetFingerprint summarises a dataset independent of partitioning.
func datasetFingerprint(d *ml.Dataset) []string {
	var out []string
	for _, p := range d.All() {
		out = append(out, fmt.Sprintf("%.4f|%v", p.Label, p.Features))
	}
	sort.Strings(out)
	return out
}

func TestAllThreeApproachesProduceIdenticalDatasets(t *testing.T) {
	const cartsPer = 8
	d, err := datagen.Generate(datagen.Config{Users: 60, CartsPerUser: cartsPer, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// One USA user has no recorded gender. NULL is not a recode level and
	// phase 2 is an inner join, so every approach must drop that user's
	// carts — the naive path included.
	usa, planted := 0, false
	for _, u := range d.Users {
		if u[3].AsString() != "USA" {
			continue
		}
		usa++
		if !planted {
			u[2] = row.NullOf(row.TypeString)
			planted = true
		}
	}
	envCfg := DefaultEnvConfig()
	envCfg.BlockSize = 16 << 10
	env := startEnvWithData(t, envCfg, d)
	cfg := paperConfig()

	results := make(map[Approach]*RunResult)
	for _, a := range []Approach{Naive, InSQL, InSQLStream} {
		res, err := Run(env, a, cfg)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if want := (usa - 1) * cartsPer; res.Rows != want {
			t.Fatalf("%s produced %d rows, want %d (the NULL-gender user's carts excluded)", a, res.Rows, want)
		}
		results[a] = res
	}
	base := datasetFingerprint(results[Naive].Dataset)
	for _, a := range []Approach{InSQL, InSQLStream} {
		fp := datasetFingerprint(results[a].Dataset)
		if len(fp) != len(base) {
			t.Fatalf("%s: %d rows vs naive %d", a, len(fp), len(base))
		}
		for i := range fp {
			if fp[i] != base[i] {
				t.Fatalf("%s differs from naive at %d:\n%s\n%s", a, i, fp[i], base[i])
			}
		}
	}
	// Dummy coding: gender expands to 2 features → age, g1, g2, amount = 4.
	if results[Naive].Dataset.NumFeatures != 4 {
		t.Errorf("features = %d, want 4", results[Naive].Dataset.NumFeatures)
	}
}

func TestPipelineOutputTrainsSVM(t *testing.T) {
	env := newTestEnv(t, 150, 12, nil)
	res, err := Run(env, InSQLStream, paperConfig())
	if err != nil {
		t.Fatal(err)
	}
	sgd := ml.DefaultSGD()
	sgd.Iterations = 120
	model, err := ml.TrainSVMWithSGD(res.Dataset, sgd)
	if err != nil {
		t.Fatal(err)
	}
	acc := ml.Accuracy(res.Dataset, model.Predict)
	// The datagen label is logistic in the features; SVM should comfortably
	// beat a majority-class baseline.
	if acc < 0.55 {
		t.Errorf("SVM accuracy = %.3f on the generated workload", acc)
	}
}

func TestFigure3CostOrdering(t *testing.T) {
	// With the simulated I/O cost model, the per-run *simulated* time must
	// order naive > insql > insql+stream — the shape of Figure 3.
	cost := &cluster.CostModel{
		DiskReadBps:  200e6,
		DiskWriteBps: 150e6,
		NetBps:       1.25e9,
		ProcBps:      400e6,
	}
	env := newTestEnv(t, 80, 10, cost)
	cfg := paperConfig()

	simTime := make(map[Approach]int64)
	for _, a := range []Approach{Naive, InSQL, InSQLStream} {
		cost.ResetStats()
		if _, err := Run(env, a, cfg); err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		simTime[a] = int64(cost.Stats().SimulatedTime)
		t.Logf("%-13s simulated %v (disk r/w %d/%d net %d)",
			a, cost.Stats().SimulatedTime, cost.Stats().DiskReadBytes,
			cost.Stats().DiskWriteBytes, cost.Stats().NetBytes)
	}
	if !(simTime[Naive] > simTime[InSQL]) {
		t.Errorf("naive (%d) should cost more than insql (%d)", simTime[Naive], simTime[InSQL])
	}
	if !(simTime[InSQL] > simTime[InSQLStream]) {
		t.Errorf("insql (%d) should cost more than insql+stream (%d)", simTime[InSQL], simTime[InSQLStream])
	}
}

func TestFigure4CacheTiers(t *testing.T) {
	cost := &cluster.CostModel{
		DiskReadBps:  200e6,
		DiskWriteBps: 150e6,
		NetBps:       1.25e9,
		ProcBps:      400e6,
	}
	env := newTestEnv(t, 80, 10, cost)
	cfg := paperConfig()
	cfg.CachePopulate = true

	// Prime the cache with one full run.
	if _, err := Run(env, InSQLStream, cfg); err != nil {
		t.Fatal(err)
	}
	if env.Cache.Len() != 1 {
		t.Fatalf("cache entries = %d", env.Cache.Len())
	}

	cfg.CachePopulate = false
	sim := make(map[CacheTier]int64)
	for _, tier := range []CacheTier{CacheOff, CacheRecodeMaps, CacheFullResult} {
		cfg.Tier = tier
		cost.ResetStats()
		res, err := Run(env, InSQLStream, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tier, err)
		}
		sim[tier] = int64(cost.Stats().SimulatedTime)
		wantHit := map[CacheTier]cache.HitKind{
			CacheOff:        cache.Miss,
			CacheRecodeMaps: cache.RecodeMapHit,
			CacheFullResult: cache.FullResultHit,
		}[tier]
		if res.CacheHit != wantHit {
			t.Errorf("%s: hit = %s, want %s", tier, res.CacheHit, wantHit)
		}
		t.Logf("%-24s simulated %v", tier, cost.Stats().SimulatedTime)
	}
	if !(sim[CacheOff] > sim[CacheRecodeMaps]) {
		t.Errorf("no-cache (%d) should cost more than recode-map cache (%d)", sim[CacheOff], sim[CacheRecodeMaps])
	}
	if !(sim[CacheRecodeMaps] > sim[CacheFullResult]) {
		t.Errorf("recode-map cache (%d) should cost more than full cache (%d)", sim[CacheRecodeMaps], sim[CacheFullResult])
	}
}

func TestCacheServesSubsetQuery(t *testing.T) {
	env := newTestEnv(t, 60, 8, nil)
	cfg := paperConfig()
	cfg.CachePopulate = true
	if _, err := Run(env, InSQLStream, cfg); err != nil {
		t.Fatal(err)
	}

	// §5.1's follow-up query: subset projection + extra predicate.
	sub := cfg
	sub.CachePopulate = false
	sub.Tier = CacheFullResult
	sub.Query = `
		SELECT U.age, C.amount, C.abandoned
		FROM carts C, users U
		WHERE C.userid=U.userid AND U.country='USA' AND U.gender = 'F'`
	sub.Spec = transform.Spec{RecodeCols: []string{"abandoned"}}
	res, err := Run(env, InSQLStream, sub)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit != cache.FullResultHit {
		t.Fatalf("hit = %s", res.CacheHit)
	}
	if res.Dataset.NumFeatures != 2 {
		t.Errorf("features = %d, want 2 (age, amount)", res.Dataset.NumFeatures)
	}
	// Fresh run of the same query agrees with the cache-served one.
	fresh := sub
	fresh.Tier = CacheOff
	fres, err := Run(env, InSQLStream, fresh)
	if err != nil {
		t.Fatal(err)
	}
	a, b := datasetFingerprint(res.Dataset), datasetFingerprint(fres.Dataset)
	if len(a) != len(b) {
		t.Fatalf("cache-served rows %d vs fresh %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cache-served dataset differs from fresh at %d", i)
		}
	}
}

// TestCacheRefusesInexactMixedImplication caches a query filtered on
// age < 9007199254740992.0, then runs one filtered on
// age < 9007199254740993 under CacheFullResult. The literals compare equal
// as DOUBLEs, but the planted user aged 2^53 passes only the second filter.
// §5.1's exact cached-predicate check already refuses the full result; the
// §5.2 tier must refuse the map too, because the cached map lacks the
// planted user's gender. Served or not, the dataset must equal a fresh
// run's.
func TestCacheRefusesInexactMixedImplication(t *testing.T) {
	d, err := datagen.Generate(datagen.Config{Users: 60, CartsPerUser: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range d.Users {
		if u[3].AsString() == "USA" {
			u[1], u[2] = row.Int(1<<53), row.String_("X")
			break
		}
	}
	envCfg := DefaultEnvConfig()
	envCfg.BlockSize = 16 << 10
	env := startEnvWithData(t, envCfg, d)

	cached := paperConfig()
	cached.Query = paperQuery + " AND U.age < 9007199254740992.0"
	cached.CachePopulate = true
	if _, err := Run(env, InSQLStream, cached); err != nil {
		t.Fatal(err)
	}
	next := paperConfig()
	next.Query = paperQuery + " AND U.age < 9007199254740993"
	next.Tier = CacheFullResult
	res, err := Run(env, InSQLStream, next)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit != cache.Miss {
		t.Errorf("hit = %s, want a miss", res.CacheHit)
	}
	next.Tier = CacheOff
	fresh, err := Run(env, InSQLStream, next)
	if err != nil {
		t.Fatal(err)
	}
	a, b := datasetFingerprint(res.Dataset), datasetFingerprint(fresh.Dataset)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("cache-served dataset (%d rows) differs from fresh (%d rows)", len(a), len(b))
	}
}

// TestCacheRefusesInexactSameKindImplication caches a query filtered on
// amount < 9007199254740993, then runs one filtered on
// amount <= 9007199254740992 under CacheRecodeMaps. Both literals are
// BIGINT and amount is DOUBLE, so the engine rounds the first to 2^53.0:
// the planted cart of amount 2^53 passes only the second filter. Its user
// is the only one of gender "X", so the cached recode map lacks "X", and
// the §5.2 tier must not serve it. Served or not, the dataset must equal a
// fresh run's.
func TestCacheRefusesInexactSameKindImplication(t *testing.T) {
	d, err := datagen.Generate(datagen.Config{Users: 60, CartsPerUser: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	uid := int64(len(d.Users) + 1)
	d.Users = append(d.Users, row.Row{row.Int(uid), row.Int(40), row.String_("X"), row.String_("USA")})
	d.Carts = append(d.Carts, row.Row{
		row.Int(int64(len(d.Carts) + 1)), row.Int(uid), row.Float(1 << 53),
		row.Int(3), row.Int(2013), row.String_("Yes"),
	})
	envCfg := DefaultEnvConfig()
	envCfg.BlockSize = 16 << 10
	env := startEnvWithData(t, envCfg, d)

	cached := paperConfig()
	cached.Query = paperQuery + " AND C.amount < 9007199254740993"
	cached.CachePopulate = true
	if _, err := Run(env, InSQLStream, cached); err != nil {
		t.Fatal(err)
	}
	next := paperConfig()
	next.Query = paperQuery + " AND C.amount <= 9007199254740992"
	next.Tier = CacheRecodeMaps
	res, err := Run(env, InSQLStream, next)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit != cache.Miss {
		t.Errorf("hit = %s, want a miss", res.CacheHit)
	}
	next.Tier = CacheOff
	fresh, err := Run(env, InSQLStream, next)
	if err != nil {
		t.Fatal(err)
	}
	a, b := datasetFingerprint(res.Dataset), datasetFingerprint(fresh.Dataset)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("cache-served dataset (%d rows) differs from fresh (%d rows)", len(a), len(b))
	}
}

// TestConcurrentCacheServedRuns runs the §5.1 tier from two goroutines at
// once against one cached table: every run must be a full-result hit, the
// goroutines must deliver the same datasets, and the cached table must
// read the same before and after (its sealed chunks are shared by every
// scan; see sqlengine.TestManagedChunksNeverMutated).
func TestConcurrentCacheServedRuns(t *testing.T) {
	env := newTestEnv(t, 400, 30, nil)
	cfg := paperConfig()
	cfg.CachePopulate = true
	if _, err := Run(env, InSQLStream, cfg); err != nil {
		t.Fatal(err)
	}
	var cached string
	for _, name := range env.Engine.Catalog().Names() {
		if strings.HasPrefix(name, "__cached_") {
			cached = name
		}
	}
	if cached == "" {
		t.Fatalf("no cached table in %v", env.Engine.Catalog().Names())
	}
	snapshot := func() []string {
		res, err := env.Engine.Query("SELECT * FROM " + cached)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range res.Rows() {
			out = append(out, r.String())
		}
		return out
	}
	before := snapshot()

	served := cfg
	served.CachePopulate = false
	served.Tier = CacheFullResult
	subset := served
	subset.Query = `
		SELECT U.age, C.amount, C.abandoned
		FROM carts C, users U
		WHERE C.userid=U.userid AND U.country='USA' AND U.gender = 'F'`
	subset.Spec = transform.Spec{RecodeCols: []string{"abandoned"}}
	var prints [2][2][]string
	var wg sync.WaitGroup
	for g := range prints {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, c := range []PipelineConfig{served, subset} {
				res, err := Run(env, InSQLStream, c)
				if err != nil {
					t.Error(err)
					return
				}
				if res.CacheHit != cache.FullResultHit {
					t.Errorf("cache-served run %d answered %s", i, res.CacheHit)
				}
				prints[g][i] = datasetFingerprint(res.Dataset)
			}
		}()
	}
	wg.Wait()
	for i := range prints[0] {
		if strings.Join(prints[0][i], ";") != strings.Join(prints[1][i], ";") {
			t.Errorf("run %d: the two goroutines' datasets differ", i)
		}
	}
	if len(prints[0][1]) == 0 || len(prints[0][1]) >= len(prints[0][0]) {
		t.Errorf("subset run delivered %d rows of the full %d", len(prints[0][1]), len(prints[0][0]))
	}
	if after := snapshot(); strings.Join(after, ";") != strings.Join(before, ";") {
		t.Error("the cached table reads differently after the cache-served runs")
	}
}

func TestStreamSplitFactorControlsMLParallelism(t *testing.T) {
	env := newTestEnv(t, 40, 5, nil)
	cfg := paperConfig()
	cfg.K = 3
	res, err := Run(env, InSQLStream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Dataset.Parts), 4*3; got != want {
		t.Errorf("ML partitions = %d, want %d (n=4 SQL workers x k=3)", got, want)
	}
}

func TestRunRejectsUnknownApproach(t *testing.T) {
	env := newTestEnv(t, 10, 2, nil)
	if _, err := Run(env, Approach(99), paperConfig()); err == nil {
		t.Error("unknown approach accepted")
	}
}

func TestCacheOnDFSVariant(t *testing.T) {
	cost := &cluster.CostModel{
		DiskReadBps:  200e6,
		DiskWriteBps: 150e6,
		NetBps:       1.25e9,
		ProcBps:      400e6,
	}
	env := newTestEnv(t, 60, 8, cost)
	cfg := paperConfig()
	cfg.CachePopulate = true
	cfg.CacheOnDFS = true
	first, err := Run(env, InSQLStream, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.CachePopulate = false
	cfg.Tier = CacheFullResult
	cost.ResetStats()
	res, err := Run(env, InSQLStream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit != cache.FullResultHit {
		t.Fatalf("hit = %s", res.CacheHit)
	}
	dfsServed := cost.Stats()
	if dfsServed.DiskReadBytes == 0 {
		t.Error("DFS-backed cache hit should pay a DFS scan")
	}
	// Results agree with the original run.
	a, b := datasetFingerprint(first.Dataset), datasetFingerprint(res.Dataset)
	if len(a) != len(b) {
		t.Fatalf("rows differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("DFS-cache-served dataset differs from fresh run")
		}
	}
	// And the cached part files really exist on the DFS.
	if len(env.FS.List("/cache")) == 0 {
		t.Error("no cached part files on the DFS")
	}
}

func TestPipelineWithScaling(t *testing.T) {
	env := newTestEnv(t, 60, 8, nil)
	cfg := paperConfig()
	cfg.Spec.ScaleCols = []string{"age", "amount"}
	cfg.Spec.Scaling = transform.ScalingStandard
	res, err := Run(env, InSQLStream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Scaled features: age and amount are now ~N(0,1); dummy bits are not.
	var sumAge, sumAgeSq float64
	ageIdx := 0 // age is the first feature
	for _, p := range res.Dataset.All() {
		sumAge += p.Features[ageIdx]
		sumAgeSq += p.Features[ageIdx] * p.Features[ageIdx]
	}
	n := float64(res.Dataset.NumRows())
	if mean := sumAge / n; mean < -1e-6 || mean > 1e-6 {
		t.Errorf("scaled age mean = %v", mean)
	}
	if variance := sumAgeSq / n; variance < 0.99 || variance > 1.01 {
		t.Errorf("scaled age variance = %v", variance)
	}
	// Scaled pipelines cache-match only scaled pipelines.
	cfg.CachePopulate = true
	if _, err := Run(env, InSQLStream, cfg); err != nil {
		t.Fatal(err)
	}
	unscaled := paperConfig()
	unscaled.Tier = CacheFullResult
	res2, err := Run(env, InSQLStream, unscaled)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheHit == cache.FullResultHit {
		t.Error("unscaled pipeline must not reuse a scaled cache entry")
	}
	scaledAgain := cfg
	scaledAgain.CachePopulate = false
	scaledAgain.Tier = CacheFullResult
	res3, err := Run(env, InSQLStream, scaledAgain)
	if err != nil {
		t.Fatal(err)
	}
	if res3.CacheHit != cache.FullResultHit {
		t.Errorf("identical scaled pipeline should hit the cache, got %s", res3.CacheHit)
	}
}

func TestScaledPipelineIdenticalAcrossApproaches(t *testing.T) {
	for _, kind := range []transform.ScalingKind{transform.ScalingMinMax, transform.ScalingStandard} {
		t.Run(kind.String(), func(t *testing.T) {
			env := newTestEnv(t, 50, 6, nil)
			cfg := paperConfig()
			cfg.Spec.ScaleCols = []string{"age", "amount"}
			cfg.Spec.Scaling = kind

			results := make(map[Approach]*RunResult)
			for _, a := range []Approach{Naive, InSQL, InSQLStream} {
				res, err := Run(env, a, cfg)
				if err != nil {
					t.Fatalf("%s: %v", a, err)
				}
				results[a] = res
			}
			base := datasetFingerprint(results[Naive].Dataset)
			for _, a := range []Approach{InSQL, InSQLStream} {
				fp := datasetFingerprint(results[a].Dataset)
				if len(fp) != len(base) {
					t.Fatalf("%s: %d rows vs naive %d", a, len(fp), len(base))
				}
				for i := range fp {
					if fp[i] != base[i] {
						t.Fatalf("%s differs from naive at row %d:\n%s\n%s", a, i, fp[i], base[i])
					}
				}
			}
			if kind != transform.ScalingMinMax {
				return
			}
			// Min-max scaled features land in [0,1].
			for _, p := range results[Naive].Dataset.All() {
				if p.Features[0] < 0 || p.Features[0] > 1 {
					t.Fatalf("unscaled age feature %v", p.Features[0])
				}
			}
		})
	}
}

// TestEmptyPrepResultAcrossApproaches: a preparation query that selects no
// rows yields an empty dataset of the same width under every approach. The
// DFS approaches must read an output directory of empty part files (insql's
// export) and one holding only the _SUCCESS marker (naive's map-only
// transform over no splits) as an empty table, not a missing one.
func TestEmptyPrepResultAcrossApproaches(t *testing.T) {
	env := newTestEnv(t, 40, 4, nil)
	cfg := paperConfig()
	cfg.Spec.CodeCols = nil
	cfg.Query = paperQuery + " AND C.amount < 0"
	for _, a := range []Approach{Naive, InSQL, InSQLStream} {
		res, err := Run(env, a, cfg)
		if err != nil {
			t.Errorf("%s: %v", a, err)
			continue
		}
		if res.Rows != 0 || res.Dataset.NumRows() != 0 {
			t.Errorf("%s: %d rows (dataset %d), want 0", a, res.Rows, res.Dataset.NumRows())
		}
		// Recoded, not coded: age, gender, amount.
		if res.Dataset.NumFeatures != 3 {
			t.Errorf("%s: features = %d, want 3", a, res.Dataset.NumFeatures)
		}
	}
}

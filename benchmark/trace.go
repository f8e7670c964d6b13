package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"sqlml/internal/cache"
	"sqlml/internal/cluster"
)

const (
	// stagedIters is how many staged iterations a traced run makes; every
	// span metric is the median over them.
	stagedIters = 3
	// fusedOps is the untraced window of a traced run: the whole the
	// stages are compared with, and what the GC metrics are read around.
	fusedOps = 5
	// sideOps is how many ops core.fused_p1 and core.fused_small time.
	sideOps = 3
	// costPairs is how many alternating (costed, uncosted) op pairs price
	// the simulator.
	costPairs = 5
	// smallDivisor sizes core.fused_small: a fifth of the users, so 100 k
	// carts beside the 500 k default.
	smallDivisor = 5
)

// span is one timed call sequence into a layer. Spans stay in memory and
// are written out when the run ends.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: a root
	Op      int    `json:"op"`     // the iteration or op the span belongs to
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	CPUNS   int64  `json:"cpu_ns"`
	Mallocs uint64 `json:"mallocs"`
	Bytes   uint64 `json:"alloc_bytes"`
	RowsIn  int64  `json:"rows_in"`
	RowsOut int64  `json:"rows_out"`
}

type tracer struct {
	origin time.Time
	spans  []span
}

// add records a finished span that started at start and returns its id.
func (t *tracer) add(name string, parent, op int, start time.Time, c counters, rowsIn, rowsOut int64) int {
	s := start.Sub(t.origin).Nanoseconds()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		StartNS: s, EndNS: s + c.wall.Nanoseconds(), CPUNS: c.cpu.Nanoseconds(),
		Mallocs: c.mallocs, Bytes: c.bytes, RowsIn: rowsIn, RowsOut: rowsOut,
	})
	return len(t.spans)
}

// span times f, which reports the rows it produced.
func (t *tracer) span(name string, parent, op int, cost *cluster.CostModel, rowsIn int64, f func() (int64, error)) error {
	start := time.Now()
	var rowsOut int64
	c, err := timed(cost, func() (err error) {
		rowsOut, err = f()
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	t.add(name, parent, op, start, c, rowsIn, rowsOut)
	return nil
}

// spanStat is a span name's cost per iteration: the spans of one iteration
// summed (a workload with two steps runs each stage twice), then the median
// over iterations.
type spanStat struct {
	wallMS, cpuMS, mallocs, bytes float64
	rowsIn, rowsOut               int64
}

func (s spanStat) perRow(v float64) float64 {
	if s.rowsIn == 0 {
		return 0
	}
	return v / float64(s.rowsIn)
}

func (t *tracer) stat(name string) spanStat {
	type sum struct {
		wall, cpu, mallocs, bytes float64
		rowsIn, rowsOut           int64
	}
	var ops []int
	byOp := map[int]*sum{}
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		a := byOp[s.Op]
		if a == nil {
			a = &sum{}
			byOp[s.Op] = a
			ops = append(ops, s.Op)
		}
		a.wall += float64(s.EndNS-s.StartNS) / 1e6
		a.cpu += float64(s.CPUNS) / 1e6
		a.mallocs += float64(s.Mallocs)
		a.bytes += float64(s.Bytes)
		a.rowsIn += s.RowsIn
		a.rowsOut += s.RowsOut
	}
	if len(ops) == 0 {
		return spanStat{}
	}
	col := func(f func(*sum) float64) float64 {
		v := make([]float64, len(ops))
		for i, op := range ops {
			v[i] = f(byOp[op])
		}
		return median(v)
	}
	first := byOp[ops[0]]
	return spanStat{
		wallMS:  col(func(a *sum) float64 { return a.wall }),
		cpuMS:   col(func(a *sum) float64 { return a.cpu }),
		mallocs: col(func(a *sum) float64 { return a.mallocs }),
		bytes:   col(func(a *sum) float64 { return a.bytes }),
		rowsIn:  first.rowsIn, rowsOut: first.rowsOut,
	}
}

// dstRowsPerOp is how many points one op hands the ML side, by the
// reference every op is checked against.
func (h *harness) dstRowsPerOp() int64 {
	var n int
	for _, st := range h.w.steps {
		switch st.ref {
		case refPaper:
			n += h.ref.paper.rows
		case refFollowUp:
			n += h.ref.followUp.rows
		default:
			n += len(h.ref.agg)
		}
	}
	return int64(n * h.w.repeat)
}

// fused runs n untraced ops under one root span each.
func (t *tracer) fused(h *harness, name string, n int, log *opLog) {
	for i := 0; i < n; i++ {
		start := time.Now()
		c, err := h.runOp()
		log.record(c, err)
		if err == nil {
			t.add(name, 0, log.attempted(), start, c, h.srcRowsPerOp(), h.dstRowsPerOp())
		}
	}
}

// staged runs one staged iteration under a root span.
func (t *tracer) staged(h *harness, op int, totals *stageTotals) error {
	start := time.Now()
	root := t.add(spanStagedIter, 0, op, start, counters{}, h.srcRowsPerOp()/int64(h.w.repeat), 0)
	s := &stager{h: h, t: t, parent: root, op: op, totals: totals}
	external := false
	for _, st := range h.w.steps {
		external = external || !st.cached()
	}
	if external {
		if err := s.substrate(); err != nil {
			return err
		}
	}
	for _, st := range h.w.steps {
		if err := s.pipeline(st); err != nil {
			return err
		}
	}
	t.spans[root-1].EndNS = time.Since(t.origin).Nanoseconds()
	return nil
}

// gcNow reads the runtime's cumulative GC CPU seconds and cycle count.
func gcNow() (cpuSeconds float64, cycles uint64) {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	return samples[0].Value.Float64(), samples[1].Value.Uint64()
}

// costOverhead prices the simulator: the op on the calibrated deployment
// minus the same op on one built without a cost model, in CPU ms, as the
// median over alternating pairs.
func costOverhead(h *harness, sc scale, log *opLog) (float64, error) {
	env, _, err := setup(h.w, sc, false)
	if err != nil {
		return 0, fmt.Errorf("uncosted set-up: %w", err)
	}
	defer env.Close()
	hu := &harness{w: h.w, env: env, ref: h.ref}
	if _, err := hu.runOp(); err != nil {
		return 0, fmt.Errorf("uncosted warm-up op: %w", err)
	}
	var diffs []float64
	for i := 0; i < costPairs; i++ {
		order := []*harness{h, hu}
		if i%2 == 1 {
			order = []*harness{hu, h}
		}
		cpu := map[*harness]time.Duration{}
		for _, side := range order {
			c, err := side.runOp()
			log.record(c, err)
			if err != nil {
				return 0, err
			}
			cpu[side] = c.cpu
		}
		diffs = append(diffs, ms(cpu[h]-cpu[hu]))
	}
	return median(diffs), nil
}

// fusedSmall times the op on a deployment a fifth the size: the other
// point of the fixed-cost fit.
func (t *tracer) fusedSmall(w *workload, small scale, log *opLog) error {
	hs, _, err := prepare(w, small, 1)
	if err != nil {
		return fmt.Errorf("small scale: %w", err)
	}
	defer hs.env.Close()
	if _, err := hs.runOp(); err != nil {
		return fmt.Errorf("small-scale warm-up op: %w", err)
	}
	t.fused(hs, spanFusedSmall, sideOps, log)
	return nil
}

// traceRun is the -trace 1 run: an untraced window of fused ops, the
// staged iterations, and the side measurements that need another
// GOMAXPROCS, another cost model or another scale.
func traceRun(opts options, out io.Writer) (*result, error) {
	w, err := workloadByName(opts.workload)
	if err != nil {
		return nil, err
	}
	sc := opts.scale()
	h, _, err := prepare(w, sc, 1)
	if err != nil {
		return nil, err
	}
	defer h.env.Close()
	for i := 0; i < warmUps; i++ {
		if _, err := h.runOp(); err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
	}
	t := &tracer{origin: time.Now()}
	var log opLog

	// The whole: untraced ops, with the GC's share read around them.
	runtime.GC()
	gcCPU0, gcCycles0 := gcNow()
	cpu0 := cpuTime()
	t.fused(h, spanFused, fusedOps, &log)
	gcCPU1, gcCycles1 := gcNow()
	fusedCPU := cpuTime() - cpu0

	// The parts.
	var totals stageTotals
	for i := 0; i < stagedIters; i++ {
		log.record(counters{}, t.staged(h, log.attempted()+1, &totals))
	}
	hits := h.env.Cache.Stats()

	// One core instead of two.
	runtime.GOMAXPROCS(1)
	t.fused(h, spanFusedP1, sideOps, &log)
	runtime.GOMAXPROCS(procs)

	overhead, err := costOverhead(h, sc, &log)
	if err != nil {
		return nil, err
	}
	small := sc
	small.users = max(sc.users/smallDivisor, 1)
	if err := t.fusedSmall(w, small, &log); err != nil {
		return nil, err
	}
	if log.failed > 0 {
		// Without a complete set of spans there is nothing to derive the
		// per-layer metrics from.
		return nil, fmt.Errorf("%d of %d traced ops failed: %w", log.failed, log.attempted(), log.firstErr)
	}

	res := newResult(&log)
	for _, name := range append(append([]string{}, rowSpans...), spanFusedP1, spanFusedSmall, spanHandshake) {
		s := t.stat(name)
		for suffix, v := range map[string]float64{
			".wall_ms": s.wallMS, ".cpu_ms": s.cpuMS,
			".allocs_per_row": s.perRow(s.mallocs), ".alloc_b_per_row": s.perRow(s.bytes),
			".rows_in": float64(s.rowsIn), ".rows_out": float64(s.rowsOut),
		} {
			if _, ok := units[name+suffix]; ok {
				res.set(name+suffix, v)
			}
		}
	}
	// Their rows_in is the call count.
	for _, name := range []string{spanAnalyze, spanCacheLookup} {
		s := t.stat(name)
		res.set(name+".us_per_call", 1e3*s.perRow(s.wallMS))
	}
	lookups := 0
	for _, n := range hits {
		lookups += n
	}
	res.set("cache.hit_ratio", ratio(float64(hits[cache.FullResultHit]), float64(lookups)))

	prep := t.stat(spanPrep)
	res.set("sqlengine.rows_scanned_per_row_out", ratio(float64(prep.rowsIn), float64(prep.rowsOut)))
	res.set("dfs.bytes_written_per_row", ratio(float64(totals.writtenBytes), float64(totals.writtenRows)))
	res.set("row.wire_b_per_row", ratio(float64(totals.wireBytes), float64(totals.codecRows)))
	res.set("row.raw_b_per_row", ratio(float64(totals.rawBytes), float64(totals.codecRows)))
	res.set("stream.frames", float64(totals.frames)/stagedIters)
	res.set("stream.spilled_bytes", float64(totals.spilled)/stagedIters)
	res.set("stream.restarts", float64(totals.restarts)/stagedIters)
	res.set("stream.reconnects", float64(totals.reconnects)/stagedIters)
	res.set("cluster.cost_overhead_ms", overhead)

	whole, p1, fsmall := t.stat(spanFused), t.stat(spanFusedP1), t.stat(spanFusedSmall)
	res.set("core.parallel_speedup", ratio(p1.wallMS, whole.wallMS))
	// Two-point fit wall = fixed + perRow·rows through the small and the
	// full scale; the intercept is the cost an op pays whatever its size.
	perRow := ratio(whole.wallMS-fsmall.wallMS, float64(whole.rowsIn-fsmall.rowsIn))
	res.set("core.fixed_cost_ms", fsmall.wallMS-perRow*float64(fsmall.rowsIn))
	res.set("runtime.gc_cpu_frac", ratio(gcCPU1-gcCPU0, fusedCPU.Seconds()))
	res.set("runtime.gc_cycles_per_op", float64(gcCycles1-gcCycles0)/fusedOps)

	var stageCPU, stageWall float64
	for _, name := range pathStages {
		s := t.stat(name)
		stageCPU += s.cpuMS
		stageWall += s.wallMS
	}
	// A staged iteration covers each step once; an op repeats them.
	res.set("trace.cpu_coverage", ratio(stageCPU*float64(w.repeat), whole.cpuMS))
	res.set("trace.overlap", ratio(whole.wallMS, stageWall*float64(w.repeat)))

	printStamp(out, opts, sc)
	fmt.Fprintf(out, "# fused_ops=%d staged_iterations=%d side_ops=%d cost_pairs=%d small_scale=%s steps_per_iteration=%d iterations_per_op=%d\n",
		fusedOps, stagedIters, sideOps, costPairs, small, len(w.steps), w.repeat)
	printSpanTable(out, t, w, whole)
	res.print(out, perLayer)
	path, err := writeTrace(opts, sc, t)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# %d spans written to %s\n", len(t.spans), path)
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printSpanTable shows each span's cost per iteration and its share of the
// fused op's CPU and allocations.
func printSpanTable(out io.Writer, t *tracer, w *workload, whole spanStat) {
	fmt.Fprintf(out, "# %-22s %9s %9s %9s %9s %10s %8s %9s %11s %10s\n",
		"span", "wall ms", "cpu ms", "rows in", "rows out", "allocs/row", "B/row", "cpu share", "alloc share", "byte share")
	names := append(append([]string{}, rowSpans...), spanHandshake, spanAnalyze, spanCacheLookup, spanFusedP1, spanFusedSmall)
	for _, name := range names {
		s := t.stat(name)
		// A staged iteration covers each step once and an op repeats
		// them; a µs-scale span holds microCalls calls where a run makes one.
		rep := float64(w.repeat)
		switch name {
		case spanFused, spanFusedP1, spanFusedSmall:
			rep = 1
		case spanAnalyze, spanCacheLookup:
			rep /= microCalls
		}
		fmt.Fprintf(out, "# %-22s %9.1f %9.1f %9d %9d %10.2f %8.0f %8.1f%% %10.1f%% %9.1f%%\n",
			name, s.wallMS, s.cpuMS, s.rowsIn, s.rowsOut, s.perRow(s.mallocs), s.perRow(s.bytes),
			100*ratio(s.cpuMS*rep, whole.cpuMS), 100*ratio(s.mallocs*rep, whole.mallocs), 100*ratio(s.bytes*rep, whole.bytes))
	}
}

// writeTrace writes the spans to <out>/trace-<workload>.json.
func writeTrace(opts options, sc scale, t *tracer) (string, error) {
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(opts.outDir, "trace-"+opts.workload+".json")
	data, err := json.MarshalIndent(struct {
		Workload   string `json:"workload"`
		Seed       int64  `json:"seed"`
		Scale      string `json:"scale"`
		Commit     string `json:"commit"`
		GoVersion  string `json:"go"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Spans      []span `json:"spans"`
	}{opts.workload, opts.seed, sc.String(), commit(), runtime.Version(), procs, t.spans}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

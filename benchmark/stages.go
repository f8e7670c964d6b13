package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sqlml/internal/cache"
	"sqlml/internal/cluster"
	"sqlml/internal/core"
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/mapred"
	"sqlml/internal/ml"
	"sqlml/internal/rewriter"
	"sqlml/internal/row"
	"sqlml/internal/sqlengine"
	"sqlml/internal/stream"
	"sqlml/internal/transform"
)

// The staged run executes an op's stages one at a time to completion, each
// fed the previous stage's real output, with a span around each call into
// a layer. Everything between spans — registering a result as a table,
// materializing one stage's output for the next, building the column
// batches a codec stage consumes — is off the clock.
//
// Only the stages on the workload's path run; a stage the workload
// bypasses reports zero. Some spans re-measure part of another in
// isolation and are not stages of their own: dfs.read ⊂
// hadoopfmt.text_read ⊂ sqlengine.scan ⊂ sqlengine.prep (external tables),
// row.encode, row.decode and stream.handshake ⊂ stream.transfer, dfs.write
// ⊂ sqlengine.export_dfs, ml.ingest_row ⊂ ml.ingest_dfs.

// pathStages are the spans whose sum stands for the fused op in
// trace.cpu_coverage and trace.overlap.
var pathStages = []string{
	spanPrep, spanRecodeMap, spanApply,
	spanTransfer, spanIngestCol,
	spanExport, spanIngestDFS,
}

// microCalls is how often a µs-scale call repeats inside its span.
const microCalls = 200

var stageSeq atomic.Int64

// stager runs one staged iteration.
type stager struct {
	h      *harness
	t      *tracer
	parent int
	op     int
	totals *stageTotals
}

// stageTotals are the counts a staged run keeps beside its spans.
type stageTotals struct {
	codecRows, wireBytes, rawBytes int64
	writtenRows, writtenBytes      int64
	frames, spilled                int64
	restarts, reconnects           int64
}

func (s *stager) span(name string, rowsIn int64, f func() (int64, error)) error {
	return s.t.span(name, s.parent, s.op, s.h.env.Cost, rowsIn, f)
}

// rowsOf counts a materialized partition set.
func rowsOf(parts [][]row.Row) int64 {
	var n int64
	for _, p := range parts {
		n += int64(len(p))
	}
	return n
}

// drain pulls every partition pipeline of a result to its end, one
// goroutine per partition as the engine's own consumers do, and returns the
// row count.
func drain(res *sqlengine.Result) (int64, error) {
	iters, err := res.Batches()
	if err != nil {
		return 0, err
	}
	var rows atomic.Int64
	errs := make([]error, len(iters))
	var wg sync.WaitGroup
	for i := range iters {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer iters[i].Close()
			for {
				b, ok, err := iters[i].Next()
				if err != nil || !ok {
					errs[i] = err
					return
				}
				rows.Add(int64(len(b)))
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return rows.Load(), nil
}

// substrate measures what every scan of an external table is made of: the
// raw DFS read of the warehouse files, the text format's splits → rows for
// carts, and the engine's scan of carts.
func (s *stager) substrate() error {
	env := s.h.env
	usersTable, err := env.Engine.Catalog().Get("users")
	if err != nil {
		return err
	}
	cartsTable, err := env.Engine.Catalog().Get("carts")
	if err != nil {
		return err
	}
	paths := []string{usersTable.External.Path, cartsTable.External.Path}
	src := int64(s.h.ref.srcRows)
	if err := s.span(spanDFSRead, src, func() (int64, error) {
		for _, p := range paths {
			if _, err := env.FS.ReadFile(p, workerNode(env, 0)); err != nil {
				return 0, err
			}
		}
		return src, nil
	}); err != nil {
		return err
	}
	carts := int64(s.h.ref.carts)
	if err := s.span(spanTextRead, carts, func() (int64, error) {
		f := hadoopfmt.NewTextTableFormat(env.FS, cartsTable.External.Path, cartsTable.Schema)
		splits, err := f.Splits(env.Engine.NumWorkers())
		if err != nil {
			return 0, err
		}
		var n int64
		for i, sp := range splits {
			k, err := drainSplit(f, sp, workerNode(env, i))
			if err != nil {
				return 0, err
			}
			n += k
		}
		return n, nil
	}); err != nil {
		return err
	}
	return s.span(spanScan, carts, func() (int64, error) {
		res, err := env.Engine.QueryStream("SELECT * FROM carts")
		if err != nil {
			return 0, err
		}
		return drain(res)
	})
}

// drainSplit reads one split to its end and discards it, a column batch at
// a time where the reader serves them (the streaming transfer's does, and
// ml.Ingest reads it that way), else a row at a time. It returns the rows.
func drainSplit(f hadoopfmt.InputFormat, sp hadoopfmt.InputSplit, node *cluster.Node) (n int64, err error) {
	rr, err := f.Open(sp, node)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := rr.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if cr, ok := rr.(hadoopfmt.ColBatchRecordReader); ok {
		cb := row.GetColBatch(nil)
		defer row.PutColBatch(cb)
		for {
			got, ok, err := cr.NextColBatch(cb)
			if err != nil || !ok {
				return n, err
			}
			n += int64(got)
		}
	}
	for {
		_, ok, err := rr.Next()
		if err != nil || !ok {
			return n, err
		}
		n++
	}
}

// pipeline stages one step of the workload and checks the dataset the last
// stage built against the reference.
func (s *stager) pipeline(st step) error {
	env, e, cfg := s.h.env, s.h.env.Engine, st.cfg
	prepSQL := cfg.Query
	cached := st.cached()
	if cached {
		var info *rewriter.QueryInfo
		if err := s.span(spanAnalyze, microCalls, func() (_ int64, err error) {
			for i := 0; i < microCalls && err == nil; i++ {
				info, err = rewriter.AnalyzeSQL(e, cfg.Query)
			}
			return microCalls, err
		}); err != nil {
			return err
		}
		var hit *cache.Hit
		if err := s.span(spanCacheLookup, microCalls, func() (int64, error) {
			for i := 0; i < microCalls; i++ {
				hit = env.Cache.LookupAtMost(info, cfg.Spec, cache.FullResultHit)
			}
			return microCalls, nil
		}); err != nil {
			return err
		}
		if hit.Kind != cache.FullResultHit {
			return fmt.Errorf("cache answered %s, want %s", hit.Kind, cache.FullResultHit)
		}
		prepSQL = hit.RewrittenSQL
	}

	// As in core.Run: a fresh run materializes the prep result (building
	// the recode map and recoding are two scans of it), a cache-served run
	// streams the rewritten query straight to its consumer — so there the
	// span drains and discards, and the rows the stages downstream need
	// come from a second, unclocked execution.
	var prep *sqlengine.Result
	if err := s.span(spanPrep, s.h.srcRows(st), func() (_ int64, err error) {
		if cached {
			res, err := e.QueryStream(prepSQL)
			if err != nil {
				return 0, err
			}
			return drain(res)
		}
		if prep, err = e.Query(prepSQL); err != nil {
			return 0, err
		}
		return int64(prep.NumRows()), nil
	}); err != nil {
		return err
	}
	if cached {
		var err error
		if prep, err = e.Query(prepSQL); err != nil {
			return err
		}
	}
	parts, err := prep.Parts()
	if err != nil {
		return err
	}
	schema := prep.Schema

	if !cached {
		prepRows := rowsOf(parts)
		prepTable := fmt.Sprintf("__bench_prep_%d", stageSeq.Add(1))
		if err := e.RegisterResult(prepTable, prep); err != nil {
			return err
		}
		defer dropTable(e, prepTable)
		var m *transform.RecodeMap
		if err := s.span(spanRecodeMap, prepRows, func() (int64, error) {
			var mapTable string
			var err error
			if m, mapTable, err = transform.BuildRecodeMap(e, prepTable, cfg.Spec.RecodeCols); err != nil {
				return 0, err
			}
			return int64(len(m.Rows())), e.DropTable(mapTable)
		}); err != nil {
			return err
		}
		if err := s.span(spanApply, prepRows, func() (int64, error) {
			out, err := transform.Apply(e, prepTable, cfg.Spec, m)
			if err != nil {
				return 0, err
			}
			defer dropTable(e, out.MapTable)
			return drain(out.Result)
		}); err != nil {
			return err
		}
		// The span drained the streaming transform and kept nothing, as
		// the fused op's consumers do; the stages downstream need its rows,
		// so run it once more off the clock and materialize.
		out, err := transform.Apply(e, prepTable, cfg.Spec, m)
		if err != nil {
			return err
		}
		parts, err = out.Result.Parts()
		dropTable(e, out.MapTable)
		if err != nil {
			return err
		}
		schema = out.Result.Schema
	}

	var ds *ml.Dataset
	if s.h.w.approach == core.InSQLStream {
		ds, err = s.streamStages(cfg, schema, parts)
	} else {
		ds, err = s.dfsStages(cfg, schema, parts)
	}
	if err != nil {
		return err
	}
	return s.h.ref.check(st.ref, ds)
}

// dropTable removes a temp table the benchmark registered; the catalog
// only fails the drop of a table that is not there.
func dropTable(e *sqlengine.Engine, name string) {
	_ = e.DropTable(name)
}

func (h *harness) ingestOptions(cfg core.PipelineConfig) ml.IngestOptions {
	return ml.IngestOptions{
		LabelCol:       cfg.LabelCol,
		LabelTransform: cfg.LabelTransform,
		NumWorkers:     len(h.env.WorkerIDs),
		Nodes:          h.env.WorkerNodes(),
		Cost:           h.env.Cost,
	}
}

// streamStages is the second half of an insql+stream op: the wire codec
// without a socket, the coordinator handshake without rows, the transfer
// into readers that discard, and the columnar ingest.
func (s *stager) streamStages(cfg core.PipelineConfig, schema row.Schema, parts [][]row.Row) (*ml.Dataset, error) {
	types := row.SchemaTypes(schema)
	rows := rowsOf(parts)
	k := cfg.K

	// Column batches of the engine's batch size: what the transform
	// pipeline hands the sender, and what a reader decodes a frame into.
	batches := make([][]*row.ColBatch, len(parts))
	for p, part := range parts {
		for lo := 0; lo < len(part); lo += row.DefaultBatchSize {
			hi := min(lo+row.DefaultBatchSize, len(part))
			b := row.NewColBatch(types)
			b.FromRows(types, part[lo:hi])
			batches[p] = append(batches[p], b)
		}
	}

	var frames [][]byte
	defer func() {
		for _, f := range frames {
			row.RecycleBlockBuffer(f)
		}
	}()
	if err := s.span(spanEncode, rows, func() (int64, error) {
		for _, pb := range batches {
			var enc row.BlockEncoder
			enc.EnableColumnar(types, true)
			for _, b := range pb {
				enc.AppendBatch(b)
				s.totals.rawBytes += int64(enc.RawBytes())
				f := enc.Finish()
				s.totals.wireBytes += int64(len(f))
				frames = append(frames, f)
			}
		}
		return rows, nil
	}); err != nil {
		return nil, err
	}
	s.totals.codecRows += rows
	if err := s.span(spanDecode, rows, func() (int64, error) {
		var dec row.BlockDecoder
		dst := row.NewColBatch(types)
		var n int64
		for _, f := range frames {
			got, err := dec.DecodeBatch(f, dst, types)
			if err != nil {
				return 0, err
			}
			n += int64(got)
		}
		return n, nil
	}); err != nil {
		return nil, err
	}

	if err := s.span(spanHandshake, 0, func() (int64, error) {
		_, n, err := transfer(s.h.env, schema, make([][]row.Row, len(parts)), k)
		return n, err
	}); err != nil {
		return nil, err
	}
	if err := s.span(spanTransfer, rows, func() (int64, error) {
		stats, n, err := transfer(s.h.env, schema, parts, k)
		for _, st := range stats {
			s.totals.frames += st.FramesSent
			s.totals.spilled += st.SpilledBytes
			s.totals.restarts += int64(st.Restarts)
			s.totals.reconnects += int64(st.Reconnects)
		}
		return n, err
	}); err != nil {
		return nil, err
	}

	// n·k splits, partition p's batches dealt to its k splits in turn.
	f := &colFormat{schema: schema}
	for p, pb := range batches {
		splits := make([]*colSplit, k)
		for j := range splits {
			splits[j] = &colSplit{host: workerNode(s.h.env, p).Addr}
		}
		for i, b := range pb {
			splits[i%k].batches = append(splits[i%k].batches, b)
		}
		f.splits = append(f.splits, splits...)
	}
	var ds *ml.Dataset
	err := s.span(spanIngestCol, rows, func() (_ int64, err error) {
		if ds, err = ml.Ingest(f, s.h.ingestOptions(cfg)); err != nil {
			return 0, err
		}
		return int64(ds.NumRows()), nil
	})
	return ds, err
}

// transfer is one streaming job outside the engine: stream.Send per SQL
// worker from materialized rows, into one reader per split that drains
// column batches and discards them. It opens the same n·k loopback data
// connections the fused op does.
func transfer(env *core.Env, schema row.Schema, parts [][]row.Row, k int) ([]*stream.SenderStats, int64, error) {
	job := fmt.Sprintf("bench-%d", stageSeq.Add(1))
	f := &stream.InputFormat{CoordAddr: env.CoordAddr, Job: job, ReceiveBufferSize: env.SenderConfig.BufferSize}
	type received struct {
		rows int64
		err  error
	}
	read := make(chan received, 1)
	go func() {
		n, err := drainStream(env, f)
		read <- received{n, err}
	}()

	stats := make([]*stream.SenderStats, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stats[w], errs[w] = stream.Send(stream.SendRequest{
				CoordAddr:  env.CoordAddr,
				Job:        job,
				Command:    "svm",
				Worker:     w,
				NumWorkers: len(parts),
				K:          k,
				Node:       workerNode(env, w),
				Topo:       env.Topo,
				Cost:       env.Cost,
				Schema:     schema,
				Rows:       parts[w],
				Config:     env.SenderConfig,
			})
		}(w)
	}
	wg.Wait()
	got := <-read
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return stats, got.rows, got.err
}

// drainStream is the ML side of transfer: fetch the splits, then read each
// to its end on its own goroutine. It returns the rows received.
func drainStream(env *core.Env, f *stream.InputFormat) (int64, error) {
	splits, err := f.Splits(0)
	if err != nil {
		return 0, err
	}
	rows := make([]int64, len(splits))
	errs := make([]error, len(splits))
	var wg sync.WaitGroup
	for i, sp := range splits {
		wg.Add(1)
		go func(i int, sp hadoopfmt.InputSplit) {
			defer wg.Done()
			rows[i], errs[i] = drainSplit(f, sp, env.Topo.ByAddr(sp.Locations()[0]))
		}(i, sp)
	}
	wg.Wait()
	var total int64
	for i, err := range errs {
		if err != nil {
			return 0, err
		}
		total += rows[i]
	}
	return total, nil
}

// colFormat is an InputFormat over column batches already in memory: what
// ml.Ingest's ColBatch path costs with no wire underneath it.
type colFormat struct {
	schema row.Schema
	splits []*colSplit
}

type colSplit struct {
	host    string
	batches []*row.ColBatch
}

func (s *colSplit) Locations() []string { return []string{s.host} }
func (s *colSplit) Length() int64       { return int64(len(s.batches)) }
func (s *colSplit) String() string      { return fmt.Sprintf("colbatches@%s(%d)", s.host, len(s.batches)) }

func (f *colFormat) Schema() (row.Schema, error) { return f.schema, nil }

func (f *colFormat) Splits(int) ([]hadoopfmt.InputSplit, error) {
	out := make([]hadoopfmt.InputSplit, len(f.splits))
	for i, s := range f.splits {
		out[i] = s
	}
	return out, nil
}

func (f *colFormat) Open(split hadoopfmt.InputSplit, _ *cluster.Node) (hadoopfmt.RecordReader, error) {
	s, ok := split.(*colSplit)
	if !ok {
		return nil, fmt.Errorf("colFormat cannot open %T", split)
	}
	return &colReader{batches: s.batches, types: row.SchemaTypes(f.schema)}, nil
}

type colReader struct {
	batches []*row.ColBatch
	types   []row.Type
}

func (r *colReader) Next() (row.Row, bool, error) {
	return nil, false, fmt.Errorf("colReader serves column batches only")
}

func (r *colReader) Close() error { return nil }

// NextColBatch copies the next batch into dst, vector by vector. Transformed
// rows are all numeric and dense (ml.Ingest accepts nothing else), which is
// all this reader supports.
func (r *colReader) NextColBatch(dst *row.ColBatch) (int, bool, error) {
	if len(r.batches) == 0 {
		return 0, false, nil
	}
	src := r.batches[0]
	r.batches = r.batches[1:]
	n := src.FullLen()
	dst.Reset(r.types)
	for c, t := range r.types {
		sv, dv := src.Col(c), dst.Col(c)
		if sv.HasNulls() || src.Sel() != nil {
			return 0, false, fmt.Errorf("colReader: column %d is not dense", c)
		}
		dv.ResetDense(t, n)
		switch t {
		case row.TypeInt:
			copy(dv.Ints, sv.Ints)
		case row.TypeFloat:
			copy(dv.Floats, sv.Floats)
		default:
			return 0, false, fmt.Errorf("colReader: column %d is %s, want a numeric type", c, t)
		}
	}
	dst.SetFullLen(n)
	return n, true, nil
}

// dfsStages is the second half of an insql op: export the transformed
// rows as DFS text, write the same byte volume raw, and ingest it back —
// through the DFS, and from memory through the same row path.
func (s *stager) dfsStages(cfg core.PipelineConfig, schema row.Schema, parts [][]row.Row) (*ml.Dataset, error) {
	env := s.h.env
	rows := rowsOf(parts)
	base := fmt.Sprintf("/staging/bench-%d", stageSeq.Add(1))
	dir := base + "/transformed"
	defer func() { _ = cleanStaging(env) }() // best effort; the next iteration's paths are fresh
	if err := s.span(spanExport, rows, func() (int64, error) {
		return rows, env.Engine.ExportToDFS(sqlengine.NewResult(schema, parts), env.FS, dir)
	}); err != nil {
		return nil, err
	}

	var files [][]byte
	for _, p := range env.FS.List(dir) {
		data, err := env.FS.ReadFile(p, workerNode(env, 0))
		if err != nil {
			return nil, err
		}
		files = append(files, data)
		s.totals.writtenBytes += int64(len(data))
	}
	s.totals.writtenRows += rows
	if err := s.span(spanDFSWrite, rows, func() (int64, error) {
		for i, data := range files {
			if err := env.FS.WriteFile(fmt.Sprintf("%s/raw/part-%05d", base, i), data, workerNode(env, i)); err != nil {
				return 0, err
			}
		}
		return rows, nil
	}); err != nil {
		return nil, err
	}

	var ds *ml.Dataset
	if err := s.span(spanIngestDFS, rows, func() (_ int64, err error) {
		if ds, err = ml.Ingest(mapred.DirFormat(env.FS, dir, schema), s.h.ingestOptions(cfg)); err != nil {
			return 0, err
		}
		return int64(ds.NumRows()), nil
	}); err != nil {
		return nil, err
	}
	flat := make([]row.Row, 0, rows)
	for _, p := range parts {
		flat = append(flat, p...)
	}
	err := s.span(spanIngestRow, rows, func() (int64, error) {
		d, err := ml.Ingest(&hadoopfmt.SliceFormat{Rows: flat, RowSchema: schema}, s.h.ingestOptions(cfg))
		if err != nil {
			return 0, err
		}
		return int64(d.NumRows()), nil
	})
	return ds, err
}

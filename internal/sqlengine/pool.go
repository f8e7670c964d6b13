package sqlengine

import (
	"context"
	"errors"
	"runtime"

	"sqlml/internal/hadoopfmt"
	"sqlml/internal/row"
)

// Partitioned intra-query parallelism. Every query gets one queryPool — a
// bounded set of workers sized by Config.Parallelism — and every CPU-heavy
// pass runs as tasks claimed from it on hadoopfmt.RunTasks, the task loop
// the ML and MapReduce engines share, instead of spawning one goroutine per
// partition: one task per partition (pipeline drains, aggregation
// partials, sort runs) or per sealed chunk (the hash-join build's key
// scan). Each pipeline breaker then combines its tasks' results serially:
// the aggregate's head merge, the join's table insert, the sort's k-way
// merge. The pool carries the query's cancellation: the first failing task
// (or an external Result.Close) cancels the pool's context, no task starts
// after that, every running drain stops at its next batch boundary, and
// the partition pipelines are closed so producer goroutines and pooled
// ColBatches are released.
//
// Parallelism: 1 is the sequential oracle — one worker executes every
// task in index order, so its output is the reference the parallel
// schedules must reproduce byte-for-byte. The operators keep that
// guarantee because a task's boundaries are a deterministic function of
// the input (a partition, a chunk), never of the schedule, and the serial
// combines read the tasks' results in a fixed order.

// errQueryCancelled is the cause Result.Close cancels the query with: the
// consumer closed the result mid-stream, so the passes still running stop
// early and return it.
var errQueryCancelled = errors.New("sql: query cancelled")

// queryPool is one query's worker pool: a parallelism budget plus the
// query-wide cancellation, a context cancelled with the first failing
// task's error or, by Result.Close, with errQueryCancelled. Every parallel
// pass runs on hadoopfmt.RunTasks with at most n workers, spawned per pass
// and joined before it returns, so the pool owns no long-lived goroutines
// and an abandoned plan leaks nothing.
type queryPool struct {
	n      int
	ctx    context.Context
	cancel context.CancelCauseFunc
}

// resolveParallelism maps the Config.Parallelism convention to a concrete
// worker count: n <= 0 selects the default, one worker per available CPU.
func resolveParallelism(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

func newQueryPool(n int) *queryPool {
	ctx, cancel := context.WithCancelCause(context.Background())
	return &queryPool{n: resolveParallelism(n), ctx: ctx, cancel: cancel}
}

// partSink consumes one partition for drain: add takes its batches in
// order, and end is called once with what stopped the partition (nil at
// its end of stream) and returns the partition's error.
type partSink interface {
	add(b *row.ColBatch) error
	end(err error) error
}

// drain is the one partition drain under every pipeline breaker, result
// materialization and export: one pool task per partition feeds each batch
// of iters[i] to the sink open(i) returns, stops at the query's
// cancellation, and closes the pipeline. Pipelines with lazily started
// producer goroutines are primed first: partitions of a stream-send query
// register with their coordinator from their own goroutines, so a pool
// smaller than the partition count (including the Parallelism: 1 oracle)
// cannot deadlock their barrier. On error or cancellation every pipeline
// is closed, those of tasks the cancelled pool never ran included.
func (p *queryPool) drain(iters []ColBatchSource, open func(i int) (partSink, error)) error {
	primeIters(iters)
	err := hadoopfmt.RunTasks(p.ctx, p.cancel, len(iters), p.n, func(i int) error {
		in := iters[i]
		defer in.Close()
		s, err := open(i)
		if err != nil {
			return err
		}
		for {
			select {
			case <-p.ctx.Done():
				return s.end(context.Cause(p.ctx))
			default:
			}
			b, ok, err := in.NextCol()
			if err != nil || !ok {
				return s.end(err)
			}
			if err := s.add(b); err != nil {
				return s.end(err)
			}
		}
	})
	if err != nil {
		closeAllIters(iters)
	}
	return err
}

// drainChunks drains every partition pipeline into sealed chunks
// (chunks.go), copying each batch's live rows typed: for a result that is
// kept, a hash-join build side and an ORDER BY input.
func (p *queryPool) drainChunks(iters []ColBatchSource, types []row.Type) ([][]*row.ColBatch, error) {
	ws := make([]*chunkWriter, len(iters))
	err := p.drain(iters, func(i int) (partSink, error) {
		ws[i] = newChunkWriter(types, -1)
		return ws[i], nil
	})
	if err != nil {
		return nil, err
	}
	parts := make([][]*row.ColBatch, len(ws))
	for i, w := range ws {
		parts[i] = w.finish()
	}
	return parts, nil
}

// primeIters eagerly starts every lazily started producer goroutine
// reachable from the given pipelines (today: udfPipe). Operators that
// merely wrap another iterator forward the priming to their input.
func primeIters(iters []ColBatchSource) {
	for _, it := range iters {
		primeAny(it)
	}
}

func primeAny(it ColBatchSource) {
	switch x := it.(type) {
	case *udfPipe:
		x.prime()
	case *colFilterIter:
		primeAny(x.in)
	case *colProjectIter:
		primeAny(x.in)
	case *colProbeIter:
		primeAny(x.in)
	case *chargeColIter:
		primeAny(x.c)
	}
}

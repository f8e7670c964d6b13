package sqlengine

import (
	"errors"
	"sync"

	"sqlml/internal/cluster"
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/row"
)

// errPipeClosed is the cancellation signal delivered to a running table
// UDF through its emit function when the consumer closes the pipeline
// early (e.g. LIMIT, or a first-error abort downstream).
var errPipeClosed = errors.New("sql: pipeline closed")

// udfPipe runs a push-style table UDF as a pull-style columnar operator:
// the UDF executes in its own goroutine and hands each emitted batch to the
// consumer, zero-copy. emit blocks until the consumer's next NextCol (or
// Close) releases the batch, so the UDF may refill it as soon as emit
// returns. Closing the iterator cancels the UDF through its emit function.
// The goroutine starts lazily on the first NextCol, so building a plan (or
// abandoning it) spawns nothing.
type udfPipe struct {
	input ColBatchSource
	run   func(in ColBatchSource, emit func(*row.ColBatch) error) error

	mu      sync.Mutex
	started bool
	closed  bool
	held    bool // the consumer holds a lent batch; its emit is waiting

	out     chan *row.ColBatch
	release chan struct{}
	errc    chan error
	cancel  chan struct{}
	done    chan struct{}
}

func newUDFPipe(input ColBatchSource, run func(in ColBatchSource, emit func(*row.ColBatch) error) error) *udfPipe {
	return &udfPipe{
		input:   input,
		run:     run,
		out:     make(chan *row.ColBatch),
		release: make(chan struct{}),
		errc:    make(chan error, 1),
		cancel:  make(chan struct{}),
		done:    make(chan struct{}),
	}
}

func (p *udfPipe) start() {
	go func() {
		defer close(p.done)
		defer p.input.Close()
		defer close(p.out)
		emit := func(b *row.ColBatch) error {
			if b.Len() == 0 {
				return nil
			}
			select {
			case p.out <- b:
			case <-p.cancel:
				return errPipeClosed
			}
			select {
			case <-p.release:
				return nil
			case <-p.cancel:
				return errPipeClosed
			}
		}
		if err := p.run(p.input, emit); err != nil && !errors.Is(err, errPipeClosed) {
			p.errc <- err
		}
	}()
}

// prime starts the UDF goroutine ahead of the first NextCol. The pool's
// bounded drains call this on every partition before claiming drain tasks:
// UDFs that rendezvous across partitions (the stream sender's coordinator
// barrier) then make progress from their own goroutines no matter how few
// pool workers are pulling, including the Parallelism: 1 oracle.
func (p *udfPipe) prime() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.started {
		return
	}
	p.started = true
	p.start()
}

func (p *udfPipe) NextCol() (*row.ColBatch, bool, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, nil
	}
	if !p.started {
		p.started = true
		p.start()
	}
	p.mu.Unlock()
	if p.held {
		// Done with the lent batch: hand it back to the waiting emit.
		p.held = false
		select {
		case p.release <- struct{}{}:
		case <-p.cancel:
		}
	}
	b, ok := <-p.out
	if ok {
		p.held = true
		return b, true, nil
	}
	select {
	case err := <-p.errc:
		return nil, false, err
	default:
		return nil, false, nil
	}
}

// Close cancels the UDF (if running) and waits for its goroutine to exit,
// so early-terminating consumers leak nothing.
func (p *udfPipe) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	started := p.started
	p.mu.Unlock()
	if !started {
		p.input.Close()
		return
	}
	close(p.cancel)
	for range p.out {
	}
	<-p.done
}

// externalScan streams a worker's assigned DFS splits as column batches —
// text bytes parsed straight into one pooled ColBatch it refills per call,
// so an external scan never materializes its partition, or a row.
type externalScan struct {
	fm     *hadoopfmt.TextTableFormat
	splits []hadoopfmt.InputSplit
	node   *cluster.Node
	idx    int
	rr     hadoopfmt.RecordReader
	buf    *row.ColBatch
}

func (s *externalScan) NextCol() (*row.ColBatch, bool, error) {
	for s.rr != nil || s.idx < len(s.splits) {
		if s.rr == nil {
			var err error
			if s.rr, err = s.fm.Open(s.splits[s.idx], s.node); err != nil {
				s.Close()
				return nil, false, err
			}
		}
		if s.buf == nil {
			s.buf = row.GetColBatch(nil)
		}
		_, ok, err := s.rr.NextColBatch(s.buf)
		if ok {
			return s.buf, true, nil
		}
		// End of split, or the read error the caller needs (teardown is then
		// best-effort).
		cerr := s.rr.Close()
		s.rr = nil
		s.idx++
		if err == nil {
			err = cerr
		}
		if err != nil {
			s.Close()
			return nil, false, err
		}
	}
	return nil, false, nil
}

func (s *externalScan) Close() {
	s.idx = len(s.splits)
	if s.rr != nil {
		// ColBatchSource.Close has no error to carry it up.
		_ = s.rr.Close()
		s.rr = nil
	}
	if s.buf != nil {
		row.PutColBatch(s.buf)
		s.buf = nil
	}
}

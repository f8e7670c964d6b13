package hadoopfmt

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// RetryableError marks a split-read failure that the consuming system
// should handle by re-executing the task: re-open the split with a fresh
// reader and discard any partially accumulated rows. The parallel streaming
// transfer uses it to signal the paper's §6 restart protocol (restart the
// SQL worker and all of its ML workers) to the reading task;
// WithAttemptBudget, which wraps every split-reading task of the ML engine
// (ml.Ingest) and of the MapReduce engine, re-executes on it, and the
// fault-injection layer (internal/fault.TaskFaults) produces it to script
// deterministic task crashes.
type RetryableError struct {
	Err error
}

// Error implements error.
func (e *RetryableError) Error() string { return "retryable: " + e.Err.Error() }

// Unwrap supports errors.Is/As.
func (e *RetryableError) Unwrap() error { return e.Err }

// IsRetryable reports whether err (or anything it wraps) is a
// RetryableError.
func IsRetryable(err error) bool {
	var re *RetryableError
	return errors.As(err, &re)
}

// MaxTaskAttempts bounds how many times WithAttemptBudget runs one task:
// the first attempt plus every re-execution a RetryableError asks for. It
// is one more than the sender's default MaxRestarts, so a reading task can
// follow every §6 restart its SQL worker may take.
const MaxTaskAttempts = 6

// WithAttemptBudget wraps a split-reading task for RunTasks. An attempt
// failing with a RetryableError runs again from scratch with the next
// attempt number (0-indexed, so fault scripts and scratch paths can name
// it), up to MaxTaskAttempts; any other error fails the task at once and
// comes back unchanged.
func WithAttemptBudget(task func(i, attempt int) error) func(i int) error {
	return func(i int) error {
		for attempt := 0; ; attempt++ {
			err := task(i, attempt)
			if err == nil || !IsRetryable(err) {
				return err
			}
			if attempt+1 >= MaxTaskAttempts {
				return fmt.Errorf("attempt budget (%d) exhausted: %w", MaxTaskAttempts, err)
			}
		}
	}
}

// RunTasks is the one parallel task loop under every engine: the SQL
// engine's partition and chunk passes, the ML engine's ingest and training
// passes, and the MapReduce phases. It runs task(i) for every i in [0, n)
// on min(n, workers) goroutines that claim indexes in order from a shared
// counter, so one worker runs the tasks in index order and a skewed task
// keeps only one worker busy while the rest drain the queue.
//
// workers = n runs every task at once, as split readers need: a stream
// split's reader must be open before the coordinator matches its SQL
// worker, which waits for all k of its readers, so a consumer that held
// some splits back until others finished would never see them served.
//
// ctx is the stop: no task is claimed once it is done. stop, when not nil,
// cancels ctx with the error of a failing task. RunTasks returns the
// lowest-index task error that is not the stop's own cause (which a task
// that saw the stop passes back), and otherwise the stop's cause: nil if
// ctx was never cancelled.
func RunTasks(ctx context.Context, stop context.CancelCauseFunc, n, workers int, task func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(n, workers) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := task(i); err != nil {
					errs[i] = err
					if stop != nil {
						stop(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	cause := context.Cause(ctx)
	for _, err := range errs {
		if err != nil && (cause == nil || !errors.Is(err, cause)) {
			return err
		}
	}
	return cause
}

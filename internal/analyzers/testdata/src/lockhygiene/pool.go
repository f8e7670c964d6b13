// Fixture for the worker-pool launch pattern the morsel-driven executor
// uses: a bounded set of goroutines claim tasks off an atomic counter and
// join through a WaitGroup. The analyzer must accept the joined form,
// flag detached claim-loop workers, and flag joining while a lock is
// still held.
package lockhygiene

import (
	"sync"
	"sync/atomic"
)

type pool struct {
	mu    sync.Mutex
	next  atomic.Int64
	tasks []func() error
}

// Good: the hadoopfmt.RunTasks shape — every worker signals wg.Done, the
// launcher joins after the loop, no lock anywhere near the claim path.
func (p *pool) goodForEach(workers int) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(p.next.Add(1) - 1)
				if t >= len(p.tasks) {
					return
				}
				_ = p.tasks[t]()
			}
		}()
	}
	wg.Wait()
}

// Bad: the same claim loop launched detached — nothing can ever join the
// workers, so a cancelled query strands them mid-claim.
func (p *pool) badDetachedWorkers(workers int) {
	for w := 0; w < workers; w++ {
		go func() { // want `goroutine body has no completion signal`
			for {
				t := int(p.next.Add(1) - 1)
				if t >= len(p.tasks) {
					return
				}
				_ = p.tasks[t]()
			}
		}()
	}
}

// Bad: joining the pool while holding the pool's own lock — workers that
// need the lock to finish deadlock the join.
func (p *pool) badJoinUnderLock(workers int) {
	var wg sync.WaitGroup
	p.mu.Lock()
	defer p.mu.Unlock()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait() // want `WaitGroup.Wait while holding p.mu`
}

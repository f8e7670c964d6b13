// Package fault is the deterministic fault-injection layer: seeded,
// scripted fault plans that drive partial-failure recovery testing across
// every distributed layer of the reproduction — connection faults for the
// streaming transfer (reset / stall / short-write at byte N), datanode
// fail/slow hooks for the simulated DFS, and record-K task-crash hooks for
// the MapReduce engine.
//
// Everything derives from a seed through a splitmix64 generator, so a
// failing chaos run is replayed exactly by re-running with the printed
// seed. Faults are *scripted*, not sampled at runtime: a plan decides up
// front which connection, datanode, or task attempt fails and where, which
// keeps schedules reproducible even when the victims run concurrently.
package fault

import (
	"sync"
	"time"
)

// Rand is a small deterministic PRNG (splitmix64). Unlike math/rand's
// global state it is per-plan, so concurrent plans never perturb each
// other's schedules.
type Rand struct {
	mu    sync.Mutex
	state uint64
}

// NewRand returns a generator for the given seed. Seed 0 is valid.
func NewRand(seed int64) *Rand {
	return &Rand{state: uint64(seed)*0x9E3779B97F4A7C15 + 0x1234567B}
}

// Uint64 returns the next raw value.
func (r *Rand) Uint64() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a value in [0, n).
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Fork derives an independent generator, so sub-plans consume randomness
// in a stable order regardless of how the parent interleaves draws.
func (r *Rand) Fork() *Rand {
	return &Rand{state: r.Uint64()}
}

// Jitter returns a deterministic jitter in [0, max) for backoff schedules.
func (r *Rand) Jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(r.Int63n(int64(max)))
}

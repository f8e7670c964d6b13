package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"sqlml/internal/cache"
	"sqlml/internal/cluster"
	"sqlml/internal/core"
)

const (
	// procs is the GOMAXPROCS every measurement runs at, so numbers from
	// machines with more cores stay comparable with the 2-vCPU runner.
	procs = 2
	// warmUps is how many untimed ops precede the measured window.
	warmUps = 2
	// setUps is how many times a run builds its deployment; setup_s is
	// their median, and the last deployment is the one measured.
	setUps = 3
)

// counters is what a timed region cost the process.
type counters struct {
	wall, cpu, sim time.Duration
	mallocs, bytes uint64
}

func (c *counters) add(o counters) {
	c.wall += o.wall
	c.cpu += o.cpu
	c.sim += o.sim
	c.mallocs += o.mallocs
	c.bytes += o.bytes
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (the kernel
// counter /proc/self/status shows as VmHWM).
func peakRSSMB() float64 {
	return float64(rusage().Maxrss) * 1024 / 1e6
}

// timed runs f and reports its wall time, process CPU, heap allocation
// (runtime.MemStats TotalAlloc / Mallocs) and simulated cluster time. The
// MemStats reads stop the world, so they sit outside the clocked interval.
func timed(cost *cluster.CostModel, f func() error) (counters, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sim0 := cost.Stats().SimulatedTime
	cpu0 := cpuTime()
	start := time.Now()
	err := f()
	c := counters{wall: time.Since(start), cpu: cpuTime() - cpu0, sim: cost.Stats().SimulatedTime - sim0}
	runtime.ReadMemStats(&m1)
	c.mallocs, c.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return c, err
}

// harness runs one workload's ops against one deployment.
type harness struct {
	w   *workload
	env *core.Env
	ref *reference
}

// srcRows is how many source-table rows a step reads: both warehouse
// tables, or the cached transformed result when the cache serves it.
func (h *harness) srcRows(st step) int64 {
	if st.cached() {
		return int64(h.ref.paper.rows)
	}
	return int64(h.ref.srcRows)
}

func (h *harness) srcRowsPerOp() int64 {
	var n int64
	for _, st := range h.w.steps {
		n += h.srcRows(st)
	}
	return n * int64(h.w.repeat)
}

// checkRun is the per-run correctness check: the expected cache outcome and
// the dataset against the independent reference.
func (h *harness) checkRun(st step, res *core.RunResult) error {
	if st.cached() && res.CacheHit != cache.FullResultHit {
		return fmt.Errorf("cache answered %s, want %s", res.CacheHit, cache.FullResultHit)
	}
	return h.ref.check(st.ref, res.Dataset)
}

// runOp executes one op. Only the core.Run calls are on the clock;
// checking each dataset and deleting the run's staging directory happen
// between them.
func (h *harness) runOp() (counters, error) {
	var total counters
	for r := 0; r < h.w.repeat; r++ {
		for _, st := range h.w.steps {
			var res *core.RunResult
			c, err := timed(h.env.Cost, func() (err error) {
				res, err = core.Run(h.env, h.w.approach, st.cfg)
				return err
			})
			total.add(c)
			if err == nil {
				err = h.checkRun(st, res)
			}
			if cerr := cleanStaging(h.env); err == nil {
				err = cerr
			}
			if err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// opLog collects the samples and failures of a sequence of ops.
type opLog struct {
	samples  []counters
	failed   int
	firstErr error
}

func (l *opLog) attempted() int { return len(l.samples) + l.failed }

func (l *opLog) record(c counters, err error) {
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
		return
	}
	l.samples = append(l.samples, c)
}

func (l *opLog) total() counters {
	var t counters
	for _, s := range l.samples {
		t.add(s)
	}
	return t
}

// prepare builds the reference and the deployment. It sets the deployment
// up n times and keeps the last; the median duration is setup_s.
func prepare(w *workload, sc scale, n int) (*harness, float64, error) {
	runtime.GOMAXPROCS(procs)
	ref, err := buildReference(sc)
	if err != nil {
		return nil, 0, fmt.Errorf("reference: %w", err)
	}
	var env *core.Env
	var took []float64
	for i := 0; i < n; i++ {
		if env != nil {
			env.Close()
			env = nil
		}
		// Give back the generated rows the reference was computed from and
		// the discarded deployment before building the next, so
		// peak_rss_mb reflects one deployment, not several.
		debug.FreeOSMemory()
		var d time.Duration
		env, d, err = setup(w, sc, true)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, d.Seconds())
	}
	return &harness{w: w, env: env, ref: ref}, median(took), nil
}

// measure is the end-to-end run: warm-ups, one forced GC, then a closed
// loop of ops — one client, one pipeline in flight — for the given window.
func measure(opts options, out io.Writer) (*result, error) {
	w, err := workloadByName(opts.workload)
	if err != nil {
		return nil, err
	}
	sc := opts.scale()
	h, setupS, err := prepare(w, sc, setUps)
	if err != nil {
		return nil, err
	}
	defer h.env.Close()
	setupRSS := peakRSSMB()
	for i := 0; i < warmUps; i++ {
		if _, err := h.runOp(); err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
	}
	// One collection before the window, never per op: the GC work ops
	// cause is part of what the alloc metrics exist to explain.
	runtime.GC()
	var log opLog
	window := time.Duration(opts.seconds * float64(time.Second))
	for start := time.Now(); log.attempted() == 0 || time.Since(start) < window; {
		log.record(h.runOp())
	}
	if len(log.samples) == 0 {
		return nil, fmt.Errorf("all %d ops failed: %w", log.failed, log.firstErr)
	}

	n := float64(len(log.samples))
	total := log.total()
	wall := make([]float64, len(log.samples))
	cpu := make([]float64, len(log.samples))
	for i, s := range log.samples {
		wall[i] = ms(s.wall)
		cpu[i] = ms(s.cpu)
	}
	tail, tailPct := tailOf(wall)
	res := newResult(&log)
	res.set("setup_s", setupS)
	res.set("pipeline_ms_p50", median(wall))
	res.set("pipeline_ms_tail", tail)
	res.set("src_rows_per_s", float64(h.srcRowsPerOp())*n/total.wall.Seconds())
	res.set("cpu_ms_per_op", median(cpu))
	res.set("alloc_mb_per_op", float64(total.bytes)/n/1e6)
	res.set("allocs_per_op", float64(total.mallocs)/n)
	res.set("peak_rss_mb", peakRSSMB())
	res.set("sim_ms_per_op", ms(total.sim)/n)

	printStamp(out, opts, sc)
	fmt.Fprintf(out, "# ops=%d samples=%d failed=%d warmups=%d runs_per_op=%d tail_pct=p%d src_rows_per_op=%d window_s=%.2f setup_rss_mb=%.0f\n",
		log.attempted(), len(log.samples), log.failed, warmUps, w.runsPerOp(), tailPct, h.srcRowsPerOp(), total.wall.Seconds(), setupRSS)
	if log.firstErr != nil {
		fmt.Fprintf(out, "# first failure: %v\n", log.firstErr)
	}
	res.print(out, endToEnd)
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf returns the highest percentile with ten samples beyond it, and
// which percentile that is. With 20 samples or fewer it falls back to the
// upper median, so the tail is never below pipeline_ms_p50.
func tailOf(v []float64) (value float64, pct int) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	i := n - 11
	if i < n/2 {
		i = n / 2
	}
	return s[i], 100 * (i + 1) / n
}

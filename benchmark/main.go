// Command benchmark is the repository's benchmark: four SQL→ML pipeline
// workloads measured end to end on the wall, CPU, allocation and sim-ms
// clocks, each op checked against a reference computed without the engine,
// plus a separate staged run (-trace 1) that times every layer from outside
// through its public functions. README.md in this directory says why each
// workload and metric is here; BENCHMARK.json at the repository root fixes
// the names, units and regression bounds.
//
//	go run ./benchmark -workload paper_stream -seed 7            # end-to-end metrics
//	go run ./benchmark -workload paper_stream -seed 7 -trace 1   # per-layer metrics
//	go run ./benchmark -repeat 10                                # calibration: spread per metric
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// options is one benchmark process's input.
type options struct {
	workload     string
	seed         int64
	users        int
	cartsPerUser int
	seconds      float64
	trace        bool
	outDir       string
}

func (o options) scale() scale {
	return scale{users: o.users, cartsPerUser: o.cartsPerUser, seed: o.seed}
}

const (
	// defaultUsers × cartsPerUser = 500 000 carts, 5× experiments.DefaultScale:
	// ops of 0.3–0.65 s, so a 20 s window holds 30–60 of them, with a
	// resident set (330–450 MB) far outside the CPU caches.
	defaultUsers = 5000
	cartsPerUser = 100
)

func main() {
	var o options
	var trace, repeat int
	flag.StringVar(&o.workload, "workload", "paper_stream", "paper_stream, paper_dfs, cached_stream or agg_prep (with -repeat: all)")
	flag.Int64Var(&o.seed, "seed", 7, "seed of the generated tables and of the reference")
	flag.IntVar(&o.users, "users", defaultUsers, "users table rows, 100 carts each; only the smoke test and core.fused_small use another scale")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window of an end-to-end run; a traced run is sized by iteration counts")
	flag.IntVar(&trace, "trace", 0, "1 makes the staged per-layer run in place of the end-to-end run")
	flag.StringVar(&o.outDir, "out", ".bench_build/trace", "directory the traced run writes trace-<workload>.json to")
	flag.IntVar(&repeat, "repeat", 0, "calibration: run this many sets, one process and one seed each, and print every metric's spread")
	flag.Parse()
	o.cartsPerUser = cartsPerUser
	o.trace = trace != 0
	if flag.NArg() > 0 || o.users <= 0 || o.seconds <= 0 || repeat < 0 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}

	var err error
	if repeat > 0 {
		err = calibrate(o, repeat, os.Stdout)
	} else {
		err = run(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run makes one measurement and ends its output with the result line.
func run(o options, out io.Writer) error {
	w := bufio.NewWriter(out)
	var res *result
	var err error
	if o.trace {
		res, err = traceRun(o, w)
	} else {
		res, err = measure(o, w)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return w.Flush()
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable outcome of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult(l *opLog) *result {
	return &result{Correct: l.failed == 0, Attempted: l.attempted(), Failed: l.failed, Metrics: map[string]metricValue{}}
}

// set records a metric under the unit its definition fixes.
func (r *result) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " has no definition")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

// print lists defs in order, one "name value unit" line each; a metric a
// run did not set is a bug.
func (r *result) print(out io.Writer, defs []metricDef) {
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			panic("benchmark: metric " + d.name + " was not measured")
		}
		fmt.Fprintf(out, "%-36s %16.6g %s\n", d.name, m.Value, m.Unit)
	}
}

// printStamp names what was measured and where.
func printStamp(out io.Writer, o options, sc scale) {
	fmt.Fprintf(out, "# sqlml benchmark workload=%s seed=%d scale=%s trace=%t\n", o.workload, o.seed, sc, o.trace)
	fmt.Fprintf(out, "# commit=%s go=%s GOMAXPROCS=%d nproc=%d cpu=%q\n",
		commit(), runtime.Version(), procs, runtime.NumCPU(), cpuModel())
}

// commit is the checkout's HEAD, or "unknown" outside a git repository
// (the driver's checkouts are plain directories).
func commit() string {
	b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

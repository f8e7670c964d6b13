// Package mapred implements a MapReduce engine over the simulated DFS:
// locality-aware map task placement over InputSplits (hadoopfmt.Place),
// every phase's tasks run at once with bounded re-execution
// (hadoopfmt.RunTasks, hadoopfmt.WithAttemptBudget), a hash-partitioned
// shuffle with network cost charging, sorted reduce groups, and text-table
// output, one part file per reduce (or map) task.
//
// It stands in for the Hadoop MapReduce deployment of the paper's testbed:
// the naive pipeline's external transformation tool (internal/jaql) runs on
// it, and the "Mahout analog" naive Bayes trainer in internal/ml/mrnb shows
// that the streaming transfer feeds MapReduce-based ML systems through the
// same InputFormat seam.
package mapred

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"sqlml/internal/cluster"
	"sqlml/internal/dfs"
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/row"
)

// Mapper transforms one input row into zero or more keyed rows.
type Mapper interface {
	Map(r row.Row, emit func(key string, value row.Row) error) error
}

// MapperFunc adapts a function to Mapper.
type MapperFunc func(r row.Row, emit func(key string, value row.Row) error) error

// Map implements Mapper.
func (f MapperFunc) Map(r row.Row, emit func(key string, value row.Row) error) error {
	return f(r, emit)
}

// Reducer folds all rows sharing a key into zero or more output rows.
type Reducer interface {
	Reduce(key string, values []row.Row, emit func(row.Row) error) error
}

// ReducerFunc adapts a function to Reducer.
type ReducerFunc func(key string, values []row.Row, emit func(row.Row) error) error

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key string, values []row.Row, emit func(row.Row) error) error {
	return f(key, values, emit)
}

// Cluster is where a job runs and what it costs there.
type Cluster struct {
	// Topo and TaskNodes give the nodes running tasks, FS holds the
	// output, and Cost is charged for task processing and shuffle traffic.
	Topo      *cluster.Topology
	FS        *dfs.FileSystem
	Cost      *cluster.CostModel
	TaskNodes []int
	// StartupDelay is the fixed per-job scheduling/startup overhead charged
	// to the cost model (Hadoop jobs pay tens of seconds of JVM spin-up and
	// JobTracker scheduling before any task runs).
	StartupDelay time.Duration
	// TaskFault, when set, is consulted before each record of every map
	// task and each key group of every reduce task — the deterministic
	// fault-injection seam (internal/fault.TaskFaults.Hook plugs in here).
	// A non-nil return fails the task attempt at that record.
	TaskFault func(phase string, task, attempt, record int) error
}

// Job describes one MapReduce job. Every task runs through
// hadoopfmt.RunTasks, all of a phase's tasks at once, under
// hadoopfmt.WithAttemptBudget: a task failing with a
// hadoopfmt.RetryableError re-executes from scratch — fresh reader,
// attempt-local output, attempt-scoped part-file scratch path — up to
// hadoopfmt.MaxTaskAttempts times before the job fails.
type Job struct {
	Cluster

	Name   string
	Input  hadoopfmt.InputFormat
	Mapper Mapper
	// Reducer may be nil for a map-only job (output written per map task).
	Reducer     Reducer
	NumReducers int
	// Combiner, when set, pre-aggregates each map task's output per key
	// before the shuffle (Hadoop's combiner contract: it must be
	// associative and emit rows the Reducer accepts as values).
	Combiner Reducer

	// OutputPath is a DFS directory; part files are written beneath it,
	// and an empty _SUCCESS marker once the job commits.
	OutputPath   string
	OutputSchema row.Schema
}

// Stats reports job counters.
type Stats struct {
	MapTasks     int
	ReduceTasks  int
	InputRows    int64
	MapOutputs   int64
	OutputRows   int64
	ShuffleBytes int64
	// TaskRetries counts task attempts that failed retryably and were
	// re-executed (across the map, reduce, and commit stages). Zero on a
	// fault-free run; the exactly-once counters above are unaffected by
	// retries because every attempt's counts are attempt-local until the
	// attempt commits.
	TaskRetries int64
}

// Run executes the job synchronously and returns its counters.
func Run(job *Job) (*Stats, error) {
	if err := validate(job); err != nil {
		return nil, err
	}
	splits, err := job.Input.Splits(0)
	if err != nil {
		return nil, fmt.Errorf("mapred: %s: %w", job.Name, err)
	}
	stats := &Stats{MapTasks: len(splits)}

	nodes := make([]*cluster.Node, len(job.TaskNodes))
	for i, id := range job.TaskNodes {
		nodes[i] = job.Topo.Node(id)
	}
	placement := hadoopfmt.Place(splits, nodes)
	job.Cost.ChargeDelay(nodes[0], job.StartupDelay)

	numReducers := job.NumReducers
	if job.Reducer == nil {
		numReducers = 0
	} else if numReducers <= 0 {
		numReducers = len(nodes)
	}
	stats.ReduceTasks = numReducers

	// runPhase runs one phase's tasks at once on hadoopfmt.RunTasks, each
	// under the attempt budget, counting every re-execution and naming the
	// phase and task in a failure.
	var taskRetries atomic.Int64
	runPhase := func(phase string, n int, body func(i, attempt int) error) error {
		return hadoopfmt.RunTasks(context.Background(), nil, n, n, hadoopfmt.WithAttemptBudget(func(i, attempt int) error {
			if attempt > 0 {
				taskRetries.Add(1)
			}
			if err := body(i, attempt); err != nil {
				return fmt.Errorf("%s task %d: %w", phase, i, err)
			}
			return nil
		}))
	}

	// Map phase. Each task partitions its output by key hash across the
	// reducers (or keeps it whole for map-only jobs).
	type mapOutput struct {
		node    *cluster.Node
		buckets [][]pair // len == numReducers (or 1 for map-only)
	}
	outputs := make([]mapOutput, len(splits))
	var inputRows, mapOutputs atomic.Int64
	// Everything an attempt produces — buckets, counters, bytes — is
	// attempt-local and folded in only when the attempt succeeds, so a
	// crashed attempt leaves no partial state for its re-execution to
	// double-count.
	err = runPhase("map", len(splits), func(i, attempt int) error {
		node := nodes[placement[i]]
		buckets := make([][]pair, max(numReducers, 1))
		var taskIn, taskOut int64
		emit := func(key string, value row.Row) error {
			taskOut++
			b := 0
			if numReducers > 0 {
				b = reducerOf(key, numReducers)
			}
			buckets[b] = append(buckets[b], pair{key: key, value: value})
			return nil
		}
		rr, err := job.Input.Open(splits[i], node)
		if err != nil {
			return err
		}
		taskBytes := 0
		attemptErr := func() error {
			record := 0
			for {
				if job.TaskFault != nil {
					if ferr := job.TaskFault("map", i, attempt, record); ferr != nil {
						return ferr
					}
				}
				r, ok, err := rr.Next()
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
				taskIn++
				record++
				taskBytes += approxRowBytes(r)
				if err := job.Mapper.Map(r, emit); err != nil {
					return err
				}
			}
		}()
		cerr := rr.Close()
		// Every attempt pays for the bytes it read, failed ones
		// included — re-execution cost is why attempts are bounded.
		job.Cost.ChargeProc(node, taskBytes)
		if attemptErr != nil {
			return attemptErr
		}
		if cerr != nil {
			return cerr
		}
		if job.Combiner != nil && numReducers > 0 {
			for b := range buckets {
				combined, err := combine(job.Combiner, buckets[b])
				if err != nil {
					return err
				}
				buckets[b] = combined
			}
		}
		outputs[i] = mapOutput{node: node, buckets: buckets}
		inputRows.Add(taskIn)
		mapOutputs.Add(taskOut)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("mapred: %s: %w", job.Name, err)
	}
	stats.InputRows = inputRows.Load()
	stats.MapOutputs = mapOutputs.Load()

	// Commit. Every task writes its part file through the attempt-scoped
	// scratch-then-rename commit; once all have, the job marks its output
	// directory with Hadoop's empty _SUCCESS file. Directory readers skip
	// it and an empty write charges nothing; it is what makes a job that
	// committed no part file (map-only over no splits) an empty table
	// rather than a missing one.
	var outputRows atomic.Int64
	if job.Reducer == nil {
		// Map-only: one part file per map task, from its node.
		err = runPhase("commit", len(splits), func(i, attempt int) error {
			rows := make([]row.Row, 0, len(outputs[i].buckets[0]))
			for _, p := range outputs[i].buckets[0] {
				rows = append(rows, p.value)
			}
			final := fmt.Sprintf("%s/part-m-%05d", job.OutputPath, i)
			n, err := commitTextTable(job, final, i, attempt, rows, outputs[i].node)
			if err != nil {
				return err
			}
			outputRows.Add(n)
			return nil
		})
	} else {
		// Shuffle: reducer r (on nodes[r % len]) pulls bucket r of every map
		// output; remote pulls are charged to the network.
		reduceNodes := make([]*cluster.Node, numReducers)
		for r := 0; r < numReducers; r++ {
			reduceNodes[r] = nodes[r%len(nodes)]
		}
		shuffled := make([][]pair, numReducers)
		var shuffleBytes int64
		for r := 0; r < numReducers; r++ {
			for _, mo := range outputs {
				b := mo.buckets[r]
				if len(b) == 0 {
					continue
				}
				if mo.node != reduceNodes[r] {
					bytes := 0
					for _, p := range b {
						bytes += len(p.key) + approxRowBytes(p.value)
					}
					job.Cost.ChargeNet(mo.node, reduceNodes[r], bytes)
					shuffleBytes += int64(bytes)
				}
				shuffled[r] = append(shuffled[r], b...)
			}
		}
		stats.ShuffleBytes = shuffleBytes

		// Reduce phase: sort by key, group, reduce, commit part files. Each
		// attempt re-sorts and re-groups from the (immutable between attempts)
		// shuffled input and accumulates into attempt-local rows, so a crashed
		// attempt's re-execution reproduces the identical part file.
		err = runPhase("reduce", numReducers, func(r, attempt int) error {
			ps := shuffled[r]
			reduceBytes := 0
			for _, p := range ps {
				reduceBytes += len(p.key) + approxRowBytes(p.value)
			}
			// A reduce task is one processing pass over its shuffled
			// input; failed attempts pay too.
			job.Cost.ChargeProc(reduceNodes[r], reduceBytes)
			sort.SliceStable(ps, func(i, j int) bool { return ps[i].key < ps[j].key })
			var rows []row.Row
			emit := func(out row.Row) error {
				rows = append(rows, out)
				return nil
			}
			record := 0
			for i := 0; i < len(ps); {
				if job.TaskFault != nil {
					if ferr := job.TaskFault("reduce", r, attempt, record); ferr != nil {
						return ferr
					}
				}
				j := i
				for j < len(ps) && ps[j].key == ps[i].key {
					j++
				}
				vals := make([]row.Row, 0, j-i)
				for _, p := range ps[i:j] {
					vals = append(vals, p.value)
				}
				if err := job.Reducer.Reduce(ps[i].key, vals, emit); err != nil {
					return err
				}
				record++
				i = j
			}
			final := fmt.Sprintf("%s/part-r-%05d", job.OutputPath, r)
			n, err := commitTextTable(job, final, r, attempt, rows, reduceNodes[r])
			if err != nil {
				return err
			}
			outputRows.Add(n)
			return nil
		})
	}
	if err == nil {
		err = job.FS.WriteFile(job.OutputPath+"/_SUCCESS", nil, nodes[0])
	}
	if err != nil {
		return nil, fmt.Errorf("mapred: %s: %w", job.Name, err)
	}
	stats.OutputRows = outputRows.Load()
	stats.TaskRetries = taskRetries.Load()
	return stats, nil
}

// commitTextTable writes one part file through an attempt-scoped scratch
// path and renames it into place only when the write fully succeeded — a
// crashed attempt leaves no partial part file for readers (or the next
// attempt) to trip over. Scratch files carry the "_" prefix Hadoop uses
// for in-progress output, which directory readers skip.
func commitTextTable(job *Job, final string, task, attempt int, rows []row.Row, node *cluster.Node) (int64, error) {
	scratch := fmt.Sprintf("%s/_attempt-%05d-%d", job.OutputPath, task, attempt)
	if _, err := hadoopfmt.WriteTextTable(job.FS, scratch, job.OutputSchema, rows, node); err != nil {
		if job.FS.Exists(scratch) {
			// Best-effort scratch cleanup on the failure path; the commit
			// rename is what correctness hangs on.
			_ = job.FS.Delete(scratch)
		}
		return 0, err
	}
	if err := job.FS.Rename(scratch, final); err != nil {
		return 0, err
	}
	return int64(len(rows)), nil
}

func validate(job *Job) error {
	switch {
	case job == nil:
		return fmt.Errorf("mapred: nil job")
	case job.Input == nil:
		return fmt.Errorf("mapred: %s: no input format", job.Name)
	case job.Mapper == nil:
		return fmt.Errorf("mapred: %s: no mapper", job.Name)
	case job.FS == nil || job.Topo == nil:
		return fmt.Errorf("mapred: %s: no cluster resources", job.Name)
	case len(job.TaskNodes) == 0:
		return fmt.Errorf("mapred: %s: no task nodes", job.Name)
	case job.OutputPath == "":
		return fmt.Errorf("mapred: %s: no output path", job.Name)
	case job.OutputSchema.Len() == 0:
		return fmt.Errorf("mapred: %s: no output schema", job.Name)
	}
	return nil
}

type pair struct {
	key   string
	value row.Row
}

// reducerOf assigns a map output key to one of n reducers by its FNV-1a
// hash. row.Hash64 inlines here, so the key's bytes are read in place.
func reducerOf(key string, n int) int {
	return int(row.Hash64([]byte(key)) % uint64(n))
}

func approxRowBytes(r row.Row) int {
	n := 4
	for _, v := range r {
		if v.Kind == row.TypeString && !v.Null {
			n += 5 + len(v.AsString())
		} else {
			n += 9
		}
	}
	return n
}

// Output returns an InputFormat reading a finished job's output directory.
func Output(job *Job) hadoopfmt.InputFormat {
	return hadoopfmt.NewTextTableFormat(job.FS, job.OutputPath, job.OutputSchema)
}

// DirFormat returns an InputFormat over every part file under a DFS
// directory, with block-aligned splits.
func DirFormat(fs *dfs.FileSystem, dir string, schema row.Schema) hadoopfmt.InputFormat {
	return hadoopfmt.NewTextTableFormat(fs, dir, schema)
}

// combine groups one bucket by key and runs the combiner per group,
// producing the pre-aggregated bucket that enters the shuffle.
func combine(c Reducer, bucket []pair) ([]pair, error) {
	if len(bucket) == 0 {
		return bucket, nil
	}
	sort.SliceStable(bucket, func(i, j int) bool { return bucket[i].key < bucket[j].key })
	var out []pair
	for i := 0; i < len(bucket); {
		j := i
		for j < len(bucket) && bucket[j].key == bucket[i].key {
			j++
		}
		vals := make([]row.Row, 0, j-i)
		for _, p := range bucket[i:j] {
			vals = append(vals, p.value)
		}
		key := bucket[i].key
		emit := func(r row.Row) error {
			out = append(out, pair{key: key, value: r})
			return nil
		}
		if err := c.Reduce(key, vals, emit); err != nil {
			return nil, err
		}
		i = j
	}
	return out, nil
}

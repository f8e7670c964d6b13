package mapred

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"sqlml/internal/fault"
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/row"
)

// retryJob builds the canonical wordcount job over a fresh cluster so
// fault-free and faulted runs are directly comparable.
func retryJob(t *testing.T, c *testCluster, out string) *Job {
	t.Helper()
	var lines []row.Row
	for i := 0; i < 30; i++ {
		lines = append(lines, row.Row{row.String_(fmt.Sprintf("w%d common w%d", i%7, i%3))})
	}
	if !c.fs.Exists("/in/retry") {
		if _, err := hadoopfmt.WriteTextTable(c.fs, "/in/retry", wordsSchema(), lines, c.topo.Node(0)); err != nil {
			t.Fatal(err)
		}
	}
	return &Job{
		Name:  "retry-wc",
		Input: hadoopfmt.NewTextTableFormat(c.fs, "/in/retry", wordsSchema()),
		Mapper: MapperFunc(func(r row.Row, emit func(string, row.Row) error) error {
			for _, w := range strings.Fields(r[0].AsString()) {
				if err := emit(w, row.Row{row.Int(1)}); err != nil {
					return err
				}
			}
			return nil
		}),
		Reducer: ReducerFunc(func(key string, values []row.Row, emit func(row.Row) error) error {
			return emit(row.Row{row.String_(key), row.Int(int64(len(values)))})
		}),
		NumReducers:  2,
		OutputPath:   out,
		OutputSchema: countSchema(),
		Cluster:      Cluster{Topo: c.topo, FS: c.fs, Cost: c.cost, TaskNodes: []int{1, 2, 3, 4}},
	}
}

// readSorted reads a job's committed output as sorted render strings, for
// byte-level comparison across runs.
func readSorted(t *testing.T, job *Job) []string {
	t.Helper()
	rows, err := hadoopfmt.ReadAll(Output(job), job.Topo.Node(0))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// TestTaskCrashRetriesExactlyOnce: scripted crashes in a map task and a
// reduce task are absorbed by per-task re-execution — the job output and
// the exactly-once counters are identical to a fault-free run, and no
// uncommitted scratch files remain.
func TestTaskCrashRetriesExactlyOnce(t *testing.T) {
	c := newTestCluster(t)
	baseline := retryJob(t, c, "/out/base")
	wantStats, err := Run(baseline)
	if err != nil {
		t.Fatal(err)
	}
	want := readSorted(t, baseline)

	faults := fault.NewTaskFaults(
		fault.TaskConfig{Phase: "map", Task: 0, AtRecord: 2, Attempts: 2},
		fault.TaskConfig{Phase: "reduce", Task: 1, AtRecord: 1, Attempts: 1},
	)
	job := retryJob(t, c, "/out/faulted")
	job.TaskFault = faults.Hook
	stats, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if faults.Crashes() != 3 {
		t.Errorf("injected %d crashes, want 3 (2 map + 1 reduce)", faults.Crashes())
	}
	if stats.TaskRetries != 3 {
		t.Errorf("TaskRetries = %d, want 3", stats.TaskRetries)
	}
	if stats.InputRows != wantStats.InputRows || stats.MapOutputs != wantStats.MapOutputs ||
		stats.OutputRows != wantStats.OutputRows {
		t.Errorf("counters drifted under retry: got %+v, want %+v", stats, wantStats)
	}
	if got := readSorted(t, job); !equalStrings(got, want) {
		t.Errorf("faulted output differs from fault-free run:\n got %v\nwant %v", got, want)
	}
	for _, f := range c.fs.List(job.OutputPath) {
		if strings.Contains(f, "_attempt") {
			t.Errorf("uncommitted scratch file left behind: %s", f)
		}
	}
}

// TestMapOnlyCommitIsAttemptScoped: a map-only job under a scripted map
// crash still commits every part file exactly once via scratch + rename.
func TestMapOnlyCommitIsAttemptScoped(t *testing.T) {
	c := newTestCluster(t)
	job := retryJob(t, c, "/out/monly")
	job.Reducer = nil
	job.NumReducers = 0
	// Map-only output is the raw emitted values (arity 1).
	job.OutputSchema = row.MustSchema(row.Column{Name: "n", Type: row.TypeInt})
	faults := fault.NewTaskFaults(fault.TaskConfig{Phase: "map", Task: 1, AtRecord: 1, Attempts: 1})
	job.TaskFault = faults.Hook
	stats, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TaskRetries != 1 {
		t.Errorf("TaskRetries = %d, want 1", stats.TaskRetries)
	}
	if stats.OutputRows != stats.MapOutputs {
		t.Errorf("map-only output rows %d != map outputs %d", stats.OutputRows, stats.MapOutputs)
	}
	for _, f := range c.fs.List(job.OutputPath) {
		if strings.Contains(f, "_attempt") {
			t.Errorf("uncommitted scratch file left behind: %s", f)
		}
	}
}

// TestAttemptBudgetExhausted: a task that crashes more times than the
// budget allows fails the job with the budget in the error.
func TestAttemptBudgetExhausted(t *testing.T) {
	c := newTestCluster(t)
	job := retryJob(t, c, "/out/exhaust")
	faults := fault.NewTaskFaults(fault.TaskConfig{Phase: "map", Task: 0, AtRecord: 0, Attempts: 10})
	job.TaskFault = faults.Hook
	_, err := Run(job)
	if err == nil {
		t.Fatal("job succeeded despite a task crashing past its attempt budget")
	}
	budget := fmt.Sprintf("attempt budget (%d) exhausted", hadoopfmt.MaxTaskAttempts)
	if !strings.Contains(err.Error(), budget) || !strings.Contains(err.Error(), "map task 0") {
		t.Errorf("error does not name the exhausted budget and the task: %v", err)
	}
	if !hadoopfmt.IsRetryable(err) {
		t.Errorf("exhausted-budget error no longer unwraps to the RetryableError: %v", err)
	}
	if faults.Crashes() != hadoopfmt.MaxTaskAttempts {
		t.Errorf("injected %d crashes, want exactly the budget (%d)", faults.Crashes(), hadoopfmt.MaxTaskAttempts)
	}
}

// TestNonRetryableErrorFailsFast: a mapper logic error is not retried —
// no task ever runs a second attempt.
func TestNonRetryableErrorFailsFast(t *testing.T) {
	c := newTestCluster(t)
	job := retryJob(t, c, "/out/logic")
	var mu sync.Mutex
	maxAttempt := 0
	job.TaskFault = func(phase string, task, attempt, record int) error {
		mu.Lock()
		if attempt > maxAttempt {
			maxAttempt = attempt
		}
		mu.Unlock()
		return nil
	}
	job.Mapper = MapperFunc(func(r row.Row, emit func(string, row.Row) error) error {
		return fmt.Errorf("bad row")
	})
	_, err := Run(job)
	if err == nil {
		t.Fatal("job succeeded despite mapper error")
	}
	mu.Lock()
	defer mu.Unlock()
	if maxAttempt != 0 {
		t.Errorf("logic error reached attempt %d; must fail fast on attempt 0", maxAttempt)
	}
}

// TestDirFormatSkipsScratchFiles: an orphaned scratch file (a crash between
// write and rename) is invisible to directory readers.
func TestDirFormatSkipsScratchFiles(t *testing.T) {
	c := newTestCluster(t)
	s := wordsSchema()
	if _, err := hadoopfmt.WriteTextTable(c.fs, "/dir2/part-m-00000", s, []row.Row{{row.String_("a")}}, c.topo.Node(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := hadoopfmt.WriteTextTable(c.fs, "/dir2/_attempt-00001-0", s, []row.Row{{row.String_("orphan")}}, c.topo.Node(1)); err != nil {
		t.Fatal(err)
	}
	got, err := hadoopfmt.ReadAll(DirFormat(c.fs, "/dir2", s), c.topo.Node(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0].AsString() != "a" {
		t.Errorf("directory read = %v, want only the committed part file", got)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

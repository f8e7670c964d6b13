// Chaos soak for the integrated Figure-3 pipelines: every schedule runs a
// seeded, deterministic fault script against a fresh deployment and the
// resulting dataset must be byte-identical to the fault-free baseline —
// exactly-once delivery under partial failure. The seed is part of every
// subtest name, so a failure names the schedule that reproduces it.
package core

import (
	"fmt"
	"sync"
	"testing"

	"sqlml/internal/fault"
	"sqlml/internal/stream"
)

const (
	chaosUsers = 100
	chaosCarts = 6
)

// chaosBaseline runs the pipeline fault-free and returns its fingerprint.
func chaosBaseline(t *testing.T, a Approach) []string {
	t.Helper()
	cfg := DefaultEnvConfig()
	cfg.BlockSize = 16 << 10
	env := startEnv(t, cfg, chaosUsers, chaosCarts)
	res, err := Run(env, a, paperConfig())
	if err != nil {
		t.Fatalf("fault-free %s baseline: %v", a, err)
	}
	if res.Rows == 0 {
		t.Fatalf("fault-free %s baseline produced no rows", a)
	}
	return datasetFingerprint(res.Dataset)
}

// chaosGear is the fault machinery one schedule arms; verify hooks inspect
// it after the run.
type chaosGear struct {
	dialer *fault.Dialer
	dfs    *fault.DFSFaults
	tasks  *fault.TaskFaults
	// readerCrashes counts injected abrupt ML-reader deaths.
	mu            sync.Mutex
	readerCrashes int
}

// TestChaosSoakExactlyOnce is the capstone: the Figure-3 pipeline under
// distinct seeded fault schedules — connection resets early, late, and in
// bulk, stalls, short writes, an ML reader crash, datanode read failures
// mid-read, task crashes, and combinations — always delivers the same
// bytes as the fault-free run. The single-reset schedule additionally
// asserts the recovery stayed local: the reset is absorbed by a per-target
// reconnect, never a §6 group restart.
func TestChaosSoakExactlyOnce(t *testing.T) {
	baseline := map[Approach][]string{
		InSQLStream: chaosBaseline(t, InSQLStream),
		Naive:       chaosBaseline(t, Naive),
	}

	schedules := []struct {
		name     string
		seed     int64
		approach Approach
		// arm scripts the schedule's faults into the deployment config and
		// pipeline config before the run.
		arm func(g *chaosGear, envCfg *EnvConfig, pipe *PipelineConfig)
		// verify asserts the schedule exercised what it meant to.
		verify func(t *testing.T, g *chaosGear, env *Env)
	}{
		{
			name: "reset-early", seed: 101, approach: InSQLStream,
			arm: func(g *chaosGear, envCfg *EnvConfig, pipe *PipelineConfig) {
				g.dialer = fault.NewDialer(101, fault.DialerConfig{
					MaxFaults: 1, Ops: []fault.Op{fault.Reset}, MaxByte: 256,
				})
				envCfg.SenderConfig.Dial = g.dialer.Dial
			},
			verify: func(t *testing.T, g *chaosGear, env *Env) {
				if g.dialer.Injected() != 1 {
					t.Errorf("armed %d resets, want 1", g.dialer.Injected())
				}
				// The capstone invariant: one connection reset recovers via
				// the resume handshake, not a group restart.
				if n := env.Coord.TotalRestarts(); n != 0 {
					t.Errorf("single reset escalated to %d group restarts; must recover per-target", n)
				}
			},
		},
		{
			name: "reset-late", seed: 202, approach: InSQLStream,
			arm: func(g *chaosGear, envCfg *EnvConfig, pipe *PipelineConfig) {
				g.dialer = fault.NewDialer(202, fault.DialerConfig{
					MaxFaults: 1, Ops: []fault.Op{fault.Reset}, MaxByte: 1 << 10,
				})
				envCfg.SenderConfig.Dial = g.dialer.Dial
			},
			verify: func(t *testing.T, g *chaosGear, env *Env) {
				if g.dialer.Injected() != 1 {
					t.Errorf("armed %d resets, want 1", g.dialer.Injected())
				}
				if n := env.Coord.TotalRestarts(); n != 0 {
					t.Errorf("late reset escalated to %d group restarts", n)
				}
			},
		},
		{
			name: "reset-multi", seed: 303, approach: InSQLStream,
			arm: func(g *chaosGear, envCfg *EnvConfig, pipe *PipelineConfig) {
				g.dialer = fault.NewDialer(303, fault.DialerConfig{
					MaxFaults: 3, Ops: []fault.Op{fault.Reset}, MaxByte: 1 << 10,
				})
				envCfg.SenderConfig.Dial = g.dialer.Dial
			},
			verify: func(t *testing.T, g *chaosGear, env *Env) {
				if g.dialer.Injected() != 3 {
					t.Errorf("armed %d resets, want 3", g.dialer.Injected())
				}
				if n := env.Coord.TotalRestarts(); n != 0 {
					t.Errorf("independent resets escalated to %d group restarts", n)
				}
			},
		},
		{
			name: "stall", seed: 404, approach: InSQLStream,
			arm: func(g *chaosGear, envCfg *EnvConfig, pipe *PipelineConfig) {
				g.dialer = fault.NewDialer(404, fault.DialerConfig{
					MaxFaults: 2, Ops: []fault.Op{fault.Stall},
					MaxByte: 512, StallFor: 40e6, // 40ms
				})
				envCfg.SenderConfig.Dial = g.dialer.Dial
			},
			verify: func(t *testing.T, g *chaosGear, env *Env) {
				// A stall is not a failure: nothing may restart or reconnect.
				if n := env.Coord.TotalRestarts(); n != 0 {
					t.Errorf("stall caused %d group restarts; stalls must only delay", n)
				}
			},
		},
		{
			name: "short-write", seed: 505, approach: InSQLStream,
			arm: func(g *chaosGear, envCfg *EnvConfig, pipe *PipelineConfig) {
				g.dialer = fault.NewDialer(505, fault.DialerConfig{
					MaxFaults: 2, Ops: []fault.Op{fault.ShortWrite}, MaxByte: 1 << 10,
				})
				envCfg.SenderConfig.Dial = g.dialer.Dial
			},
			verify: func(t *testing.T, g *chaosGear, env *Env) {
				if g.dialer.Injected() != 2 {
					t.Errorf("armed %d short writes, want 2", g.dialer.Injected())
				}
				if n := env.Coord.TotalRestarts(); n != 0 {
					t.Errorf("truncated frames escalated to %d group restarts", n)
				}
			},
		},
		{
			name: "reset+short-write", seed: 606, approach: InSQLStream,
			arm: func(g *chaosGear, envCfg *EnvConfig, pipe *PipelineConfig) {
				g.dialer = fault.NewDialer(606, fault.DialerConfig{
					MaxFaults: 4, Ops: []fault.Op{fault.Reset, fault.ShortWrite},
					MaxByte: 2 << 10,
				})
				envCfg.SenderConfig.Dial = g.dialer.Dial
			},
			verify: func(t *testing.T, g *chaosGear, env *Env) {
				if g.dialer.Injected() != 4 {
					t.Errorf("armed %d faults, want 4", g.dialer.Injected())
				}
			},
		},
		{
			name: "reset-v3-frames", seed: 1111, approach: InSQLStream,
			arm: func(g *chaosGear, envCfg *EnvConfig, pipe *PipelineConfig) {
				// Shrink the block budget so the stream spans many small
				// frames: the resets then land mid-stream and recovery must
				// resume from the frame-aligned spool — the epoch/offset
				// handshake locating the first unconsumed row inside a
				// columnar frame sequence.
				envCfg.SenderConfig.BlockRows = 8
				g.dialer = fault.NewDialer(1111, fault.DialerConfig{
					MaxFaults: 2, Ops: []fault.Op{fault.Reset}, MaxByte: 768,
				})
				envCfg.SenderConfig.Dial = g.dialer.Dial
			},
			verify: func(t *testing.T, g *chaosGear, env *Env) {
				if g.dialer.Injected() != 2 {
					t.Errorf("armed %d resets, want 2", g.dialer.Injected())
				}
				if n := env.Coord.TotalRestarts(); n != 0 {
					t.Errorf("v3-frame resets escalated to %d group restarts; must resume per-target", n)
				}
			},
		},
		{
			name: "reader-crash", seed: 707, approach: InSQLStream,
			arm: func(g *chaosGear, envCfg *EnvConfig, pipe *PipelineConfig) {
				// Crash the first reader to reach its 4th row, exactly once —
				// robust to how the senders spread blocks across splits.
				var once sync.Once
				pipe.OnInput = func(f *stream.InputFormat) {
					f.Inject = func(split, rowsRead int) bool {
						if rowsRead != 3 {
							return false
						}
						fired := false
						once.Do(func() {
							fired = true
							g.mu.Lock()
							g.readerCrashes++
							g.mu.Unlock()
						})
						return fired
					}
				}
			},
			verify: func(t *testing.T, g *chaosGear, env *Env) {
				g.mu.Lock()
				crashes := g.readerCrashes
				g.mu.Unlock()
				if crashes != 1 {
					t.Errorf("injected %d reader crashes, want 1", crashes)
				}
				// Task re-execution plus the sender's get_target reconnect
				// absorbs the dead reader without a group restart.
				if n := env.Coord.TotalRestarts(); n != 0 {
					t.Errorf("reader crash escalated to %d group restarts", n)
				}
			},
		},
		{
			name: "datanode-midread", seed: 808, approach: Naive,
			arm: func(g *chaosGear, envCfg *EnvConfig, pipe *PipelineConfig) {
				g.dfs = fault.NewDFSFaults(fault.DFSConfig{
					Node: 1, AfterReads: 4, FailReads: 6,
				})
			},
			verify: func(t *testing.T, g *chaosGear, env *Env) {
				if failedReads, _ := g.dfs.Stats(); failedReads == 0 {
					t.Error("datanode read fault never fired; replica fallback went untested")
				}
			},
		},
		{
			name: "task-crash", seed: 909, approach: Naive,
			arm: func(g *chaosGear, envCfg *EnvConfig, pipe *PipelineConfig) {
				g.tasks = fault.NewTaskFaults(
					fault.TaskConfig{Phase: "map", Task: 0, AtRecord: 1, Attempts: 1},
				)
				envCfg.TaskFault = g.tasks.Hook
			},
			verify: func(t *testing.T, g *chaosGear, env *Env) {
				if g.tasks.Crashes() == 0 {
					t.Error("task crash never fired; re-execution went untested")
				}
			},
		},
		{
			name: "task-crash+datanode-write", seed: 1010, approach: Naive,
			arm: func(g *chaosGear, envCfg *EnvConfig, pipe *PipelineConfig) {
				g.tasks = fault.NewTaskFaults(
					fault.TaskConfig{Phase: "map", Task: 0, AtRecord: 3, Attempts: 2},
				)
				envCfg.TaskFault = g.tasks.Hook
				g.dfs = fault.NewDFSFaults(fault.DFSConfig{Node: 2, FailWrites: 2})
			},
			verify: func(t *testing.T, g *chaosGear, env *Env) {
				if g.tasks.Crashes() == 0 {
					t.Error("task crash never fired")
				}
				if _, failedWrites := g.dfs.Stats(); failedWrites == 0 {
					t.Error("datanode write fault never fired; pipeline shrink went untested")
				}
			},
		},
	}

	for _, sc := range schedules {
		sc := sc
		t.Run(fmt.Sprintf("%s/seed=%d", sc.name, sc.seed), func(t *testing.T) {
			g := &chaosGear{}
			envCfg := DefaultEnvConfig()
			envCfg.BlockSize = 16 << 10
			pipe := paperConfig()
			sc.arm(g, &envCfg, &pipe)
			env := startEnv(t, envCfg, chaosUsers, chaosCarts)
			if g.dfs != nil {
				env.FS.SetFaultHook(g.dfs)
			}

			res, err := Run(env, sc.approach, pipe)
			if err != nil {
				t.Fatalf("seed %d: pipeline failed under schedule %q: %v", sc.seed, sc.name, err)
			}
			want := baseline[sc.approach]
			got := datasetFingerprint(res.Dataset)
			if len(got) != len(want) {
				t.Fatalf("seed %d: %d rows, fault-free run had %d — delivery is not exactly-once",
					sc.seed, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d: row %d differs from fault-free run:\n got %s\nwant %s",
						sc.seed, i, got[i], want[i])
				}
			}
			sc.verify(t, g, env)
		})
	}
}

// Command bench regenerates the paper's evaluation tables from the command
// line: Figure 3 (three approaches of connecting big SQL with big ML, with
// stage breakdown), Figure 4 (effect of caching), the §7 SVM-training side
// note, and the design-choice ablations.
//
// Usage:
//
//	bench -fig 3            # Figure 3
//	bench -fig 4            # Figure 4
//	bench -fig svm          # §7 SVM training note
//	bench -fig ablations    # transfer ablations (k, buffers, locality, ...)
//	bench -fig all          # everything
//	bench -users 2000 -carts-per-user 100   # scale override
//
// Every column is simulated time or a byte/frame count except the SVM
// note's training wall time; wall, CPU and allocation numbers come from
// benchmark/ only.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"sqlml/internal/experiments"
	"sqlml/internal/stream"
)

// accepted is what -fig takes: a name from figures, or all.
const accepted = "3, 4, svm, ablations, all"

// figures lists the experiments in the order -fig all prints them.
var figures = []struct {
	name string
	run  func(experiments.Scale, io.Writer) error
}{
	{"3", runFigure3},
	{"4", runFigure4},
	{"svm", runSVM},
	{"ablations", runAblations},
}

// errUsage marks a bad command line: main exits 2 for it, 1 for an
// experiment that failed.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	// ExitOnError: a malformed flag exits 2 inside Parse, as flag.Parse does.
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	fig := fs.String("fig", "all", "which experiment to run: "+accepted)
	def := experiments.DefaultScale()
	users := fs.Int("users", def.Users, "users table rows")
	cartsPer := fs.Int("carts-per-user", def.CartsPerUser, "carts per user (the paper's ratio is 100)")
	seed := fs.Int64("seed", def.Seed, "workload seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	scale := experiments.Scale{Users: *users, CartsPerUser: *cartsPer, Seed: *seed}
	ran := false
	for _, f := range figures {
		if *fig != "all" && *fig != f.name {
			continue
		}
		ran = true
		if err := f.run(scale, stdout); err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
	}
	if !ran {
		return fmt.Errorf("%w: unknown -fig %q (accepted: %s)", errUsage, *fig, accepted)
	}
	return nil
}

func newTab(out io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// simMsMeaning is the Figure 3 and 4 subtitle's statement of what a
// sim-ms total adds up.
const simMsMeaning = "sim-ms: simulated device time summed over every node — total work, not elapsed makespan"

func runFigure3(scale experiments.Scale, out io.Writer) error {
	env, err := experiments.Setup(scale, stream.DefaultSenderConfig())
	if err != nil {
		return err
	}
	defer env.Close()
	rows, err := experiments.Figure3(env)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "Figure 3 — comparison of three approaches of connecting big SQL and big ML")
	fmt.Fprintf(out, "(%s; %d users x %d carts each)\n", simMsMeaning, scale.Users, scale.CartsPerUser)
	w := newTab(out)
	fmt.Fprintln(w, "approach\tstage breakdown (sim-ms)\ttotal sim-ms")
	for _, r := range rows {
		stages := ""
		for i, s := range r.Stages {
			if i > 0 {
				stages += "  "
			}
			stages += fmt.Sprintf("%s=%s", s.Stage, ms(s.Sim))
		}
		fmt.Fprintf(w, "%s\t%s\t%s\n", r.Approach, stages, ms(r.TotalSim))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if len(rows) == 3 && rows[1].TotalSim > 0 && rows[2].TotalSim > 0 {
		fmt.Fprintf(out, "speedups: naive/insql = %.2fx (paper: 1.7x), insql/insql+stream = %.2fx\n\n",
			float64(rows[0].TotalSim)/float64(rows[1].TotalSim),
			float64(rows[1].TotalSim)/float64(rows[2].TotalSim))
	}
	return nil
}

func runFigure4(scale experiments.Scale, out io.Writer) error {
	for _, onDFS := range []bool{false, true} {
		env, err := experiments.Setup(scale, stream.DefaultSenderConfig())
		if err != nil {
			return err
		}
		rows, err := experiments.Figure4(env, onDFS)
		env.Close()
		if err != nil {
			return err
		}
		variant := "in-memory materialized view"
		if onDFS {
			variant = "actual DFS table (the paper's setting)"
		}
		fmt.Fprintf(out, "Figure 4 — effect of caching (insql+stream pipeline; cache as %s)\n", variant)
		fmt.Fprintf(out, "(%s; %d users x %d carts each)\n", simMsMeaning, scale.Users, scale.CartsPerUser)
		w := newTab(out)
		fmt.Fprintln(w, "tier\tcache hit\ttotal sim-ms")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%s\n", r.Tier, r.Hit, ms(r.TotalSim))
		}
		if err := w.Flush(); err != nil {
			return err
		}
		if len(rows) == 3 && rows[1].TotalSim > 0 && rows[2].TotalSim > 0 {
			fmt.Fprintf(out, "speedups vs no cache: recode maps = %.2fx (paper: 1.5x), full result = %.2fx (paper: 2.2x)\n\n",
				float64(rows[0].TotalSim)/float64(rows[1].TotalSim),
				float64(rows[0].TotalSim)/float64(rows[2].TotalSim))
		}
	}
	return nil
}

func runSVM(scale experiments.Scale, out io.Writer) error {
	env, err := experiments.Setup(scale, stream.DefaultSenderConfig())
	if err != nil {
		return err
	}
	defer env.Close()
	rep, err := experiments.SVMTraining(env, 10)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "§7 note — transformed-data ingestion + SVMWithSGD, 10 iterations")
	fmt.Fprintf(out, "ingest sim-ms=%s  train wall=%s  train accuracy=%.3f\n\n",
		ms(rep.IngestSim), rep.TrainWall.Round(time.Millisecond), rep.Accuracy)
	return nil
}

func runAblations(_ experiments.Scale, out io.Writer) error {
	fmt.Fprintln(out, "Ablations — parallel streaming transfer design choices (§3)")
	w := newTab(out)
	fmt.Fprintln(w, "experiment\tvariant\tsim-ms\tnet-KB\tspilled-KB\tframes\traw-KB\twire-KB\trestarts")
	report := func(name, variant string, rep *experiments.TransferReport) {
		fmt.Fprintf(w, "%s\t%s\t%s\t%.1f\t%.1f\t%d\t%.1f\t%.1f\t%d\n",
			name, variant, ms(rep.SimTime), float64(rep.NetBytes)/1024, float64(rep.SpilledBytes)/1024, rep.FramesSent,
			float64(rep.RawBytes)/1024, float64(rep.WireBytes)/1024, rep.Restarts)
	}

	for _, k := range []int{1, 2, 4, 8} {
		cfg := experiments.DefaultTransfer()
		cfg.K = k
		rep, err := experiments.RunTransfer(cfg)
		if err != nil {
			return err
		}
		report("split factor", fmt.Sprintf("k=%d", k), rep)
	}
	for _, size := range []int{1 << 10, 4 << 10, 64 << 10} {
		cfg := experiments.DefaultTransfer()
		cfg.BufferSize = size
		rep, err := experiments.RunTransfer(cfg)
		if err != nil {
			return err
		}
		report("buffer size", fmt.Sprintf("%dKB", size>>10), rep)
	}
	for _, blockRows := range []int{1, 64, 1024, 4096} {
		cfg := experiments.DefaultTransfer()
		cfg.BlockRows = blockRows
		rep, err := experiments.RunTransfer(cfg)
		if err != nil {
			return err
		}
		report("block framing", fmt.Sprintf("block=%d rows", blockRows), rep)
	}
	{
		// Every row reports raw-KB (the rows' row-encoded size) beside
		// wire-KB, so "block=1024 rows" above is already the layout+encodings
		// contrast; this run isolates the columnar layout alone.
		cfg := experiments.DefaultTransfer()
		cfg.DisableCompression = true
		rep, err := experiments.RunTransfer(cfg)
		if err != nil {
			return err
		}
		report("wire format", "raw vectors (no encodings)", rep)
	}
	for _, colocate := range []bool{true, false} {
		cfg := experiments.DefaultTransfer()
		cfg.Colocate = colocate
		variant := "colocated"
		if !colocate {
			variant = "remote"
		}
		rep, err := experiments.RunTransfer(cfg)
		if err != nil {
			return err
		}
		report("locality", variant, rep)
	}
	{
		cfg := experiments.DefaultTransfer()
		cfg.ConsumeDelay = 50 * time.Microsecond
		cfg.QueueBytes = 1 << 10 // about four 16-row frames
		cfg.BlockRows = 16
		cfg.RowsPerWork = 1500
		rep, err := experiments.RunTransfer(cfg)
		if err != nil {
			return err
		}
		report("slow consumer", "spill path †", rep)
	}
	{
		cfg := experiments.DefaultTransfer()
		cfg.RowsPerWork = 500
		cfg.FailSplit = 1
		cfg.FailAfterRows = 100
		rep, err := experiments.RunTransfer(cfg)
		if err != nil {
			return err
		}
		report("failure recovery", "1 ML worker crash", rep)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, "† timing-dependent: which frames spill depends on when the consumer falls")
	fmt.Fprintln(out, "  behind, so spilled-KB and sim-ms vary from run to run.")
	fmt.Fprintln(out)
	return nil
}

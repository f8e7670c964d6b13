package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"text/tabwriter"
)

// calibrate is -repeat N: N sets of runs, every run its own process and
// set i on seed+i, then per (metric, workload) the min, median, max and the
// quartile distance as a share of the median — the spread BENCHMARK.json's
// bounds are set from and the number a driver compares them with.
func calibrate(o options, sets int, out io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var names []string
	if o.workload == "all" {
		for _, w := range workloads() {
			names = append(names, w.name)
		}
	} else {
		if _, err := workloadByName(o.workload); err != nil {
			return err
		}
		names = []string{o.workload}
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}

	values := map[string]map[string][]float64{} // workload → metric → one value per set
	for _, name := range names {
		values[name] = map[string][]float64{}
	}
	for set := 0; set < sets; set++ {
		for _, name := range names {
			run := o
			run.workload, run.seed = name, o.seed+int64(set)
			res, err := runChild(self, run)
			if err != nil {
				return fmt.Errorf("set %d, %s: %w", set, name, err)
			}
			if !res.Correct {
				return fmt.Errorf("set %d, %s: %d of %d ops failed", set, name, res.Failed, res.Attempted)
			}
			for _, d := range defs {
				values[name][d.name] = append(values[name][d.name], res.Metrics[d.name].Value)
			}
			fmt.Fprintf(out, "# set %d %s seed %d: %d ops\n", set, name, run.seed, res.Attempted)
		}
	}

	printStamp(out, o, o.scale())
	fmt.Fprintf(out, "# %d sets, seeds %d..%d, %.0f s each\n", sets, o.seed, o.seed+int64(sets)-1, o.seconds)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tunit\tmin\tmedian\tmax\tiqr/median")
	for _, d := range defs {
		for _, name := range names {
			v := values[name][d.name]
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%.4f\n", d.name, name, d.unit, s[0], median(s), s[len(s)-1], quartileSpread(v))
		}
	}
	return tw.Flush()
}

// runChild makes one measurement in a process of its own and parses the
// result line.
func runChild(self string, o options) (*result, error) {
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(self,
		"-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-users", strconv.Itoa(o.users),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", trace,
		"-out", o.outDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (its default, exclusive method).
func quartileSpread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return ratio(q(3)-q(1), median(s))
}

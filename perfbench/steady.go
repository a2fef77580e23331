package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// steady runs each workload k times untraced, each run a fresh process
// with its own seed (1..k), and prints for every metric the median, the quartiles, the
// interquartile spread and (max-min)/median. The bounds in BENCHMARK.json
// are set from this report.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	k := fs.Int("k", 10, "runs per workload")
	seconds := fs.Int("seconds", 40, "--seconds of each run")
	names := fs.String("workloads", "zipf-hot,churn", "comma-separated workloads")
	fs.Parse(args)
	if *k < 2 {
		return fmt.Errorf("-k %d: want at least 2 runs", *k)
	}
	var ws []workload
	for _, n := range strings.Split(*names, ",") {
		w, err := findWorkload(n)
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range ws {
		vals := map[string][]float64{}
		units := map[string]string{}
		var failedShare []float64
		for seed := 1; seed <= *k; seed++ {
			cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(*seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: parsing result: %w", w.name, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: results incorrect", w.name, seed)
			}
			failedShare = append(failedShare, float64(res.Failed)/float64(res.Attempted))
			for n, m := range res.Metrics {
				vals[n] = append(vals[n], m.Value)
				units[n] = m.Unit
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n%s\n", w.name, seed, lines[0], lines[len(lines)-1])
		}
		fmt.Printf("%s: %d runs, failed share min %.4g max %.4g\n", w.name, *k, minOf(failedShare), maxOf(failedShare))
		fmt.Printf("  %-40s %12s %12s %12s %8s %8s %s\n", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "unit")
		metrics := make([]string, 0, len(vals))
		for n := range vals {
			metrics = append(metrics, n)
		}
		sort.Strings(metrics)
		for _, n := range metrics {
			xs := vals[n]
			q1, q3 := quartiles(xs)
			med := median(xs)
			fmt.Printf("  %-40s %12.5g %12.5g %12.5g %8.3f %8.3f %s\n", n, med, q1, q3,
				(q3-q1)/med, (maxOf(xs)-minOf(xs))/med, units[n])
		}
	}
	return nil
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

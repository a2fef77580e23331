// Command perfbench is the classification service's benchmark. It drives
// the service through its public API (serve.New, Submit/Wait, ApplyOps)
// with a closed-loop client on generated rules and traffic, checks every
// result it can afford against its own first-match oracle, and prints one
// JSON line of metrics last.
//
//	perfbench --workload zipf-hot --seed 1 --seconds 40 --trace 0
//	perfbench steady -k 10 -workloads zipf-hot,churn
//
// With --trace 1 it instead climbs the layer ladder (engine, flow cache,
// partition, synchronous and windowed serve) and prints per-layer
// metrics. See README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "zipf-hot", "workload to run")
	seed := fs.Int64("seed", 1, "seed the rules, traffic and updates are drawn from")
	seconds := fs.Int("seconds", 10, "how long the measured part of the run lasts")
	trace := fs.Int("trace", 0, "1 runs the traced layer ladder instead of the end-to-end run")
	out := fs.String("out", ".bench_build/perfbench-trace", "directory the traced run writes its spans to")
	fs.Parse(os.Args[1:])
	if err := run(*name, *seed, *seconds, *trace, *out); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, out string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	in, err := makeInputs(w, seed)
	if err != nil {
		return err
	}
	fmt.Printf("calibration: %.1f Mops/s (GOMAXPROCS %d, %s)\n", calibrate(), runtime.GOMAXPROCS(0), runtime.Version())
	var res result
	switch trace {
	case 0:
		res, err = runBench(w, in, seconds)
	case 1:
		res, err = runLadder(w, in, seconds, out)
	default:
		return fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	if err != nil {
		return err
	}
	fmt.Printf("calibration: %.1f Mops/s\n", calibrate())
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

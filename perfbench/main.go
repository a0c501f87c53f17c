// Command perfbench is the repository benchmark: four workloads driven
// through the public functions of the simulator's packages (topology,
// updown, mcast, sim, traffic, experiment), timed from outside, with every
// simulated output checked against a digest. See README.md for the
// workloads, the metrics and how to run it.
//
// Usage:
//
//	perfbench --workload <fig9|tree-storm|rack-sparse|churn-fault> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set; with --trace 1 they are the per-layer set, and the
// spans and CPU profile of the traced phase are written under
// .bench_build/trace/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", fmt.Sprint("workload name, one of ", workloadNames()))
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	rep, err := measure(runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		traceDir: filepath.Join(".bench_build", "trace"),
	})
	if err != nil {
		return err
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

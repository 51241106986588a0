// Command e2ebench is the end-to-end serving benchmark. It hosts the
// program in its own process — a Service behind httpapi.NewHandler, or a
// cluster.Coordinator over three shard services — on loopback listeners,
// drives it with one closed-loop client, and checks every answer against
// its own mirror of the data.
//
//	e2ebench --workload adhoc --seed 1 --seconds 25 --trace 0
//	e2ebench steady --runs 5 --seconds 25 [--workloads adhoc,cluster]
//	e2ebench reference
//
// The last line of a run's standard output is a JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runLimit bounds one run; a run that overstays it is broken.
const runLimit = 170 * time.Second

func main() {
	if len(os.Args) > 1 {
		for name, cmd := range map[string]func([]string) error{"steady": steady, "reference": reference} {
			if os.Args[1] == name {
				if err := cmd(os.Args[2:]); err != nil {
					fmt.Fprintf(os.Stderr, "e2ebench %s: %v\n", name, err)
					os.Exit(1)
				}
				return
			}
		}
	}
	fs := flag.NewFlagSet("e2ebench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: adhoc, churn or cluster")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 25, "length of the timed phase")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := os.Getenv("E2EBENCH_OUT")
	if out == "" {
		out = ".bench_build"
	}
	workDir := fs.String("work-dir", out, "directory for durable engines' data")
	traceDir := fs.String("trace-dir", filepath.Join(out, "traces"), "directory the traced run writes its spans to")
	_ = fs.Parse(os.Args[1:])

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: %s did not finish within %v\n", w.name, runLimit)
		os.Exit(1)
	})
	defer watchdog.Stop()
	res, err := runWorkload(context.Background(), w, fullSizes, *seed, *seconds, *trace == 1, *workDir, *traceDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

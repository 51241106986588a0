package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// steady runs each workload repeatedly, one process per run with seeds
// seed, seed+1, …, and prints per end-to-end metric the median, the
// quartiles (as Python's statistics.quantiles(n=4) gives them), their
// distance as a share of the median, and the range.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	runs := fs.Int("runs", 5, "runs per workload")
	seconds := fs.Float64("seconds", 25, "timed phase per run")
	seed := fs.Int64("seed", 1, "first seed")
	names := fs.String("workloads", "adhoc,churn,cluster", "comma-separated workloads")
	_ = fs.Parse(args)
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range strings.Split(*names, ",") {
		if _, ok := findWorkload(name); !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		values := map[string][]float64{}
		units := map[string]string{}
		var shares []string
		for i := 0; i < *runs; i++ {
			s := *seed + int64(i)
			cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(s), "--seconds", fmt.Sprint(*seconds), "--trace", "0")
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, s, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, s, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: correct is false", name, s)
			}
			shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			for m, v := range res.Metrics {
				values[m] = append(values[m], v.Value)
				units[m] = v.Unit
			}
		}
		fmt.Printf("workload %s: %d runs, failed/attempted %s\n", name, *runs, strings.Join(shares, " "))
		fmt.Printf("  %-18s %6s %12s %12s %12s %9s %12s %12s\n", "metric", "unit", "median", "q1", "q3", "iqr/med", "min", "max")
		ms := make([]string, 0, len(values))
		for m := range values {
			ms = append(ms, m)
		}
		sort.Strings(ms)
		for _, m := range ms {
			xs := append([]float64(nil), values[m]...)
			sort.Float64s(xs)
			q1, med, q3 := quantile(xs, 1, 4), median(xs), quantile(xs, 3, 4)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Printf("  %-18s %6s %12.4f %12.4f %12.4f %9.4f %12.4f %12.4f\n", m, units[m], med, q1, q3, spread, xs[0], xs[len(xs)-1])
		}
	}
	return nil
}

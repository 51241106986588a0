package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	div "repro"
)

// reference prints the README's reference figures: the n=2000 cold probe
// under the auto and memoized plane regimes, and one engine against the
// cluster on the cluster workload's rows.
func reference(args []string) error {
	fs := flag.NewFlagSet("reference", flag.ExitOnError)
	reps := fs.Int("reps", 5, "repetitions per figure")
	_ = fs.Parse(args)
	fmt.Printf("host: %s/%s, %d CPUs, GOMAXPROCS %d, %s\n", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if err := coldProbe(*reps); err != nil {
		return err
	}
	return singleVsCluster(*reps)
}

// coldProbe times a cold greedy query (prepare, evaluate, build the plane,
// solve) over 2000 points under PlaneAuto and PlaneMemoized.
func coldProbe(reps int) error {
	eng := div.NewEngine()
	if err := eng.CreateTable("pts", "id", "x", "y", "w"); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	for i := 1; i <= 2000; i++ {
		if err := eng.Insert("pts", genPoint(rng, int64(i)).row()...); err != nil {
			return err
		}
	}
	src := "Q(id, x, y, w) :- pts(id, x, y, w)"
	for _, obj := range objectives {
		var answers []string
		for _, regime := range []div.PlaneRegime{div.PlaneAuto, div.PlaneMemoized} {
			var times []float64
			var answer string
			for r := 0; r < reps; r++ {
				start := time.Now()
				p, err := eng.Prepare(src, append(euclidScoring.options(nil), div.WithPlaneRegime(regime))...)
				if err != nil {
					return err
				}
				resp, err := p.Do(context.Background(), libRequest(shape{K: 10, Lambda: 0.5, Objective: obj}))
				if err != nil {
					return err
				}
				times = append(times, ms(time.Since(start)))
				answer = fmt.Sprint(resp.Selection.Rows, resp.Selection.Value)
			}
			answers = append(answers, answer)
			fmt.Printf("cold probe n=2000 %s %-9s median %8.1f ms (min %.1f, max %.1f, %d runs)\n",
				obj, regime, median(times), slices.Min(times), slices.Max(times), reps)
		}
		if answers[0] != answers[1] {
			return fmt.Errorf("cold probe %s: auto and memoized answers differ", obj)
		}
	}
	return nil
}

// singleVsCluster serves the cluster workload's rows from one engine and
// from the coordinator over three shards, and times every shape's first
// query (a solve) and its repeats (result-cache hits on the single engine,
// coreset hits on the shards) through the same client.
func singleVsCluster(reps int) error {
	b := newBench(context.Background(), fullSizes, 1, false, "")
	b.rng = rand.New(rand.NewSource(1))
	ce, err := setupCluster(b, rand.New(rand.NewSource(1)))
	if err != nil {
		return err
	}
	c := ce.(*clusterEnv)
	defer c.close()
	eng := div.NewEngine()
	if err := eng.CreateTable("items", "id", "cat", "w"); err != nil {
		return err
	}
	for _, p := range c.m.answers(func(point) bool { return true }) {
		if err := eng.Insert("items", p.catRow()...); err != nil {
			return err
		}
	}
	n, err := startNode(b, eng, "", catScoring, nil)
	if err != nil {
		return err
	}
	defer n.close()
	if err := n.register(b, clusterStmt, "Q(id, cat, w) :- items(id, cat, w)"); err != nil {
		return err
	}
	single := newClient(n.srv.url)
	defer single.tr.CloseIdleConnections()
	// Build the single engine's plane before timing, as the shards' were.
	if _, err := b.query(single, clusterStmt, shape{K: 3, Lambda: 0.5, Objective: "max-sum"}); err != nil {
		return err
	}
	for _, side := range []struct {
		name string
		cl   client
	}{{"single engine", single}, {"cluster (3 shards)", c.cl}} {
		var first, repeat []float64
		for _, s := range shapes() {
			s.K++ // shapes the set-up has not cached
			for r := 0; r <= reps; r++ {
				start := time.Now()
				if _, err := b.query(side.cl, clusterStmt, s); err != nil {
					return err
				}
				if d := ms(time.Since(start)); r == 0 {
					first = append(first, d)
				} else {
					repeat = append(repeat, d)
				}
			}
		}
		fmt.Printf("%d rows, %-18s first query p50 %8.2f ms, repeat p50 %6.2f ms\n",
			len(c.m.rows), side.name, median(first), median(repeat))
	}
	return nil
}

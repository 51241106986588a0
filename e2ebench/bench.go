package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	div "repro"
	"repro/httpapi"
)

// sizes are a workload's input dimensions; the smoke test shrinks them.
type sizes struct {
	adhocRows    int // table rows
	adhocAnswers int // answers of each adhoc statement
	churnRows    int
	churnCut     int64 // statement selects x < churnCut
	churnBatch   int   // rows per insert and per delete request
	round        int   // cluster: requests per round (the last is the write)
	shardRows    int   // cluster rows per shard
}

var fullSizes = sizes{
	adhocRows: 40000, adhocAnswers: 2000,
	churnRows: 20000, churnCut: 250000, churnBatch: 4,
	round:     50,
	shardRows: 8000,
}

const (
	coordMax  = 1_000_000 // x and y are drawn from [0, coordMax)
	numCats   = 40        // cluster categories
	shards    = 3
	setupReps = 3 // set-ups per run; setup_s is their median
)

// sample is one client-observed query latency.
type sample struct {
	ms     float64
	cached bool
}

// bench is one run: the client side of the closed loop, its samples and,
// in a traced run, the tracer and per-layer samples.
type bench struct {
	ctx     context.Context
	sz      sizes
	seed    int64
	rng     *rand.Rand // operation choices; data comes from its own stream
	tr      *tracer    // nil in untraced runs
	workDir string     // where durable engines keep their data

	timed    atomic.Bool   // inside the timed phase; read by handlers in tests
	opTime   time.Duration // Σ of timed operation durations
	excluded time.Duration // untimed time inside the current operation
	opSpan   int64
	parent   int64 // the open span new spans nest under
	ops      int
	failed   int
	failures map[string]int // first line of each failure kind, counted

	queries []sample
	mutates []float64

	// wrap, when set, wraps every node's handler; tests use it to corrupt
	// responses.
	wrap func(http.Handler) http.Handler

	// traced runs: per-layer samples and counters, and the δdis/δrel
	// calls made by the counting closures of shadow statements.
	layer    map[string][]float64
	disCalls atomic.Int64
	relCalls atomic.Int64
}

func newBench(ctx context.Context, sz sizes, seed int64, traced bool, workDir string) *bench {
	b := &bench{ctx: ctx, sz: sz, seed: seed, workDir: workDir,
		failures: make(map[string]int), layer: make(map[string][]float64)}
	if traced {
		b.tr = newTracer()
	}
	return b
}

// op runs one operation. Its duration, minus the untimed checks and traced
// replays inside it, counts toward the timed phase; an error marks it
// failed. Outside the timed phase an error aborts the run.
func (b *bench) op(name string, fn func() error) error {
	b.excluded = 0
	if b.tr != nil {
		b.opSpan = b.tr.newID()
		b.parent = b.opSpan
		b.tr.op.Store(b.opSpan)
	}
	start := time.Now()
	err := fn()
	end := time.Now()
	if b.tr != nil {
		b.tr.record(span{ID: b.opSpan, Op: b.opSpan, Name: "op." + name,
			Start: start.Sub(b.tr.origin).Nanoseconds(), End: end.Sub(b.tr.origin).Nanoseconds()})
	}
	if !b.timed.Load() {
		if err != nil {
			return fmt.Errorf("%s during set-up: %w", name, err)
		}
		return nil
	}
	b.ops++
	b.opTime += end.Sub(start) - b.excluded
	if err != nil {
		b.failed++
		msg := fmt.Sprintf("%s: %v", name, err)
		if len(msg) > 300 {
			msg = msg[:300] + "…"
		}
		b.failures[msg]++
	}
	return nil
}

// span runs fn as a span nested under the open one and returns its
// duration.
func (b *bench) span(name string, fn func()) time.Duration {
	if b.tr == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	id, parent := b.tr.newID(), b.parent
	b.parent = id
	start := time.Now()
	fn()
	end := time.Now()
	b.parent = parent
	b.tr.record(span{ID: id, Parent: parent, Op: b.opSpan, Name: name,
		Start: start.Sub(b.tr.origin).Nanoseconds(), End: end.Sub(b.tr.origin).Nanoseconds()})
	return end.Sub(start)
}

// untimed runs fn inside an operation without counting its time.
func (b *bench) untimed(name string, fn func()) {
	b.excluded += b.span(name, fn)
}

// sampleLayer adds a traced per-layer sample.
func (b *bench) sampleLayer(name string, v float64) {
	if b.tr != nil && b.timed.Load() {
		b.layer[name] = append(b.layer[name], v)
	}
}

func queryRequest(s shape) httpapi.QueryRequest {
	k, lambda, obj, alg := s.K, s.Lambda, s.Objective, "greedy"
	return httpapi.QueryRequest{K: &k, Lambda: &lambda, Objective: &obj, Algorithm: &alg}
}

func libRequest(s shape) div.Request {
	k, lambda := s.K, s.Lambda
	obj, _ := div.ParseObjective(s.Objective)
	alg := div.Greedy
	return div.Request{K: &k, Lambda: &lambda, Objective: &obj, Algorithm: &alg}
}

// client wraps an httpapi.Client on a private transport, so the closed
// loop keeps one connection of its own.
type client struct {
	*httpapi.Client
	tr *http.Transport
}

func newClient(url string) client {
	tr := &http.Transport{MaxIdleConnsPerHost: 2, IdleConnTimeout: time.Minute}
	return client{
		Client: &httpapi.Client{BaseURL: url, HTTPClient: &http.Client{Transport: tr}, DefaultTimeout: 2 * time.Minute},
		tr:     tr,
	}
}

// roundtrip runs one client call as an httpapi.roundtrip span; handler
// spans recorded meanwhile take it as their parent.
func (b *bench) roundtrip(fn func()) time.Duration {
	return b.span("httpapi.roundtrip", func() {
		if b.tr != nil {
			b.tr.cur.Store(b.parent)
			defer b.tr.cur.Store(0)
		}
		fn()
	})
}

// query sends one diversify request and records its latency.
func (b *bench) query(c client, name string, s shape) (*div.Response, error) {
	var resp *div.Response
	var err error
	d := b.roundtrip(func() { resp, err = c.Query(b.ctx, name, queryRequest(s)) })
	if err != nil {
		return nil, fmt.Errorf("query %s: %w", s, err)
	}
	if b.timed.Load() {
		b.queries = append(b.queries, sample{ms: ms(d), cached: resp.Cached})
	}
	return resp, nil
}

// mutate sends one insert or delete request and records its latency.
func (b *bench) mutate(c client, table string, rows [][]interface{}, del bool) (httpapi.MutateBody, error) {
	var mb httpapi.MutateBody
	var err error
	d := b.roundtrip(func() {
		if del {
			mb, err = c.Delete(b.ctx, table, rows)
		} else {
			mb, err = c.Insert(b.ctx, table, rows)
		}
	})
	if err != nil {
		return mb, fmt.Errorf("mutate %s: %w", table, err)
	}
	if b.timed.Load() {
		b.mutates = append(b.mutates, ms(d))
	}
	return mb, nil
}

// applyLocal is a traced run's stand-in for a mutation request: it calls
// Engine.Insert / Engine.Delete row by row, timing the relation layer (and
// the write-ahead log behind it), and reports what the request would.
func (b *bench) applyLocal(eng func(row []interface{}) *div.Engine, gen func() uint64, table string, rows [][]interface{}, del bool) (httpapi.MutateBody, error) {
	before := gen()
	for _, row := range rows {
		e := eng(row)
		var err error
		name := "relation.insert"
		if del {
			name = "relation.delete"
		}
		d := b.span(name, func() {
			if del {
				_, err = e.Delete(table, row...)
			} else {
				err = e.Insert(table, row...)
			}
		})
		if err != nil {
			return httpapi.MutateBody{}, fmt.Errorf("%s: %w", name, err)
		}
		b.sampleLayer(name+"_ms", ms(d))
	}
	after := gen()
	return httpapi.MutateBody{Applied: int(after - before), Generation: after}, nil
}

// server is one loopback HTTP listener in this process.
type server struct {
	srv      *http.Server
	url      string
	accepted atomic.Int64
	done     chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(countingListener{Listener: ln, accepted: &s.accepted})
	}()
	return s, nil
}

// close stops the listener and every connection, and waits for Serve to
// return.
func (s *server) close() {
	_ = s.srv.Close()
	<-s.done
}

// env is a workload's running system: set up, driven round by round, then
// checked and torn down.
type env interface {
	// round runs one round of operations through b.op.
	round(b *bench, r int) error
	// counters reads the program's cumulative counters, for the traced
	// run's per-layer metrics.
	counters() map[string]float64
	// finish runs the checks that follow the timed phase.
	finish(b *bench) error
	// close stops the system and lets go of it, keeping the oracle's
	// state; it may be called more than once.
	close()
}

// workload names a workload and its set-up; one untimed round ends every
// set-up.
type workload struct {
	name  string
	setup func(b *bench, data *rand.Rand) (env, error)
}

var workloads = []workload{
	{name: "adhoc", setup: setupAdhoc},
	{name: "churn", setup: setupChurn},
	{name: "cluster", setup: setupCluster},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload sets the workload up setupReps times (keeping the last),
// runs the timed phase for the given duration, checks, and returns the
// result.
func runWorkload(ctx context.Context, w workload, sz sizes, seed int64, seconds float64, traced bool, workDir, traceDir string) (result, error) {
	return newBench(ctx, sz, seed, traced, workDir).run(w, seconds, traceDir)
}

func (b *bench) run(w workload, seconds float64, traceDir string) (result, error) {
	seed, traced := b.seed, b.tr != nil
	var e env
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if e != nil {
			e.close()
		}
		b.rng = rand.New(rand.NewSource(seed ^ 0x5eed))
		start := time.Now()
		var err error
		e, err = w.setup(b, rand.New(rand.NewSource(seed)))
		if err == nil {
			err = e.round(b, -1)
		}
		if err != nil {
			if e != nil {
				e.close()
			}
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()

	startCounters := e.counters()
	if b.tr != nil {
		b.tr.spans = nil // keep the timed phase's spans only
	}
	b.timed.Store(true)
	budget := time.Duration(seconds * float64(time.Second))
	wall := time.Now()
	var rates []float64 // per round: its operations ÷ their time
	for r := 0; b.opTime < budget; r++ {
		ops, t := b.ops, b.opTime
		if err := e.round(b, r); err != nil {
			return result{}, err
		}
		rates = append(rates, float64(b.ops-ops)/(b.opTime-t).Seconds())
	}
	wallTime := time.Since(wall)
	b.timed.Store(false)
	withSystem := liveHeap()
	endCounters := e.counters()

	finishErr := e.finish(b)
	// What the heap loses when the system is let go is the program's part
	// of it; the benchmark's own state (mirror, kept answers, samples,
	// spans) is live in both readings.
	e.close()
	withoutSystem := liveHeap()
	heapMB := float64(withSystem-withoutSystem) / (1 << 20)
	if finishErr != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: post-run check failed: %v\n", w.name, finishErr)
	}
	for msg, n := range b.failures {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %d× %s\n", w.name, n, msg)
	}

	var all, hits, misses []float64
	for _, s := range b.queries {
		all = append(all, s.ms)
		if s.cached {
			hits = append(hits, s.ms)
		} else {
			misses = append(misses, s.ms)
		}
	}
	res := result{Correct: finishErr == nil, Attempted: b.ops, Failed: b.failed, Metrics: map[string]metric{}}
	e2e := map[string]metric{
		"setup_s":          {median(setups), "s"},
		"throughput_ops_s": {median(rates), "1/s"},
		"query_p50_ms":     {median(all), "ms"},
		"query_p90_ms":     {quantile(all, 9, 10), "ms"},
		"hit_p50_ms":       {median(hits), "ms"},
		"miss_p50_ms":      {median(misses), "ms"},
		"mutate_p50_ms":    {median(b.mutates), "ms"},
		"live_heap_mb":     {heapMB, "MB"},
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed=%d traced=%v ops=%d failed=%d queries=%d (hits %d, misses %d) mutations=%d timed=%.2fs wall=%.2fs heap=%.2f-%.2fMB setups=%v\n",
		w.name, seed, traced, b.ops, b.failed, len(all), len(hits), len(misses), len(b.mutates), b.opTime.Seconds(), wallTime.Seconds(),
		float64(withSystem)/(1<<20), float64(withoutSystem)/(1<<20), setups)
	if !traced {
		res.Metrics = e2e
		return res, nil
	}
	printE2E(os.Stderr, e2e)
	res.Metrics = b.layerMetrics(startCounters, endCounters)
	lts := b.tr.layerTimes()
	printLayerTimes(os.Stderr, lts)
	if traceDir != "" {
		path := fmt.Sprintf("%s/%s-seed%d.jsonl", traceDir, w.name, seed)
		if err := b.tr.write(path); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "e2ebench: %d spans written to %s\n", len(b.tr.spans), path)
	}
	return res, nil
}

func printE2E(w *os.File, m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-18s %12.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}

// liveHeap is the heap in use after a forced collection. The second
// collection also frees what sync.Pools kept through the first.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return int64(mem.HeapAlloc)
}

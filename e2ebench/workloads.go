package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync/atomic"
	"time"

	div "repro"
	"repro/httpapi"
	"repro/internal/cluster"
)

var objectives = []string{"max-sum", "max-min"}

// shapes is the cluster request-shape mix, k × λ × objective, in
// popularity order: the first is the most requested.
func shapes() []shape {
	var out []shape
	for _, k := range []int{5, 10, 20} {
		for _, l := range []float64{0.3, 0.7} {
			for _, o := range objectives {
				out = append(out, shape{K: k, Lambda: l, Objective: o})
			}
		}
	}
	return out
}

// zipfS is the request-shape skew: the repository's replay default
// (divgen and divbench -zipf-s), under which BENCH_8 was recorded.
const zipfS = 1.3

// roundMix is the shape indices of one round of n requests: each shape as
// often as the zipf law of internal/workload.ZipfMix (rand.Zipf with v=1,
// P(i) ∝ (1+i)^−s) expects in n draws, rounded by largest remainder. Every
// round holds the same requests, so that runs differ in order and data
// but not in their mix of request shapes; the order is shuffled per round.
func roundMix(shapes, n int) []int {
	type share struct {
		i    int
		frac float64
	}
	w := make([]float64, shapes)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(float64(1+i), -zipfS)
		sum += w[i]
	}
	counts := make([]int, shapes)
	rest := make([]share, shapes)
	left := n
	for i := range w {
		x := float64(n) * w[i] / sum
		counts[i] = int(x)
		left -= counts[i]
		rest[i] = share{i, x - float64(counts[i])}
	}
	sort.SliceStable(rest, func(a, b int) bool { return rest[a].frac > rest[b].frac })
	for _, r := range rest[:left] {
		counts[r.i]++
	}
	var mix []int
	for i, c := range counts {
		for ; c > 0; c-- {
			mix = append(mix, i)
		}
	}
	return mix
}

func genPoint(rng *rand.Rand, id int64) point {
	return point{ID: id, X: rng.Int63n(coordMax), Y: rng.Int63n(coordMax), Cat: rng.Int63n(numCats), W: 0.01 + 0.98*rng.Float64()}
}

// repeats reports whether operation r re-sends its query: half the
// operations, both objectives alike, so cold queries stay the majority.
func repeats(r int) bool { return r%4 == 1 || r%4 == 2 }

func abs(r int) int {
	if r < 0 {
		return -r
	}
	return r
}

// single is the part every single-engine workload shares: one node, the
// client, the table's mirror and the next fresh id.
type single struct {
	n      *node
	cl     client
	m      *mirror
	table  string
	nextID int64
}

// load creates the table on eng and fills it (and the mirror) with rows
// points.
func (s *single) load(eng *div.Engine, data *rand.Rand, rows int) error {
	if err := eng.CreateTable(s.table, "id", "x", "y", "w"); err != nil {
		return err
	}
	s.m = newMirror()
	for i := 1; i <= rows; i++ {
		p := genPoint(data, int64(i))
		if err := eng.Insert(s.table, p.row()...); err != nil {
			return err
		}
		s.m.add(p)
	}
	s.m.gen = eng.Generation()
	s.nextID = int64(rows) + 1
	return nil
}

func (s *single) start(b *bench, eng *div.Engine) error {
	n, err := startNode(b, eng, "httpapi.handler", euclidScoring, nil)
	if err != nil {
		return err
	}
	s.n = n
	s.cl = newClient(n.srv.url)
	return nil
}

// write sends one insert or delete request (in a traced run: applies it
// through the engine) and checks applied and generation against the
// mirror, which it then updates.
func (s *single) write(b *bench, ps []point, del bool) error {
	rows := make([][]interface{}, len(ps))
	for i, p := range ps {
		rows[i] = p.row()
	}
	var mb httpapi.MutateBody
	var err error
	if b.tr != nil {
		eng := s.n.eng
		mb, err = b.applyLocal(func([]interface{}) *div.Engine { return eng }, eng.Generation, s.table, rows, del)
	} else {
		mb, err = b.mutate(s.cl, s.table, rows, del)
	}
	if err != nil {
		return err
	}
	want := s.m.gen + uint64(len(ps))
	for _, p := range ps {
		if del {
			s.m.remove(p.ID)
		} else {
			s.m.add(p)
		}
	}
	s.m.gen = want
	if mb.Applied != len(ps) || mb.Generation != want {
		return fmt.Errorf("mutation applied %d at generation %d, want %d at %d", mb.Applied, mb.Generation, len(ps), want)
	}
	return nil
}

// queryChecked sends one query, checks it against the mirror, and replays
// it layer by layer in a traced run. It returns the canonical form of the
// checked response.
func (s *single) queryChecked(b *bench, name string, sh shape, pred func(point) bool) ([]byte, error) {
	resp, err := b.query(s.cl, name, sh)
	if err != nil {
		return nil, err
	}
	var canon []byte
	b.untimed("check", func() {
		if resp.Generation != s.m.gen {
			err = fmt.Errorf("answer at generation %d, the table is at %d", resp.Generation, s.m.gen)
			return
		}
		if err = checkExact(resp, s.m, pred, sh); err == nil {
			canon, err = canonical(resp)
		}
	})
	if err != nil {
		return nil, err
	}
	return canon, b.replayQuery(s.n, name, sh)
}

// repeat re-sends a query that was just answered; the result cache must
// serve it, byte-equal to the checked answer.
func (s *single) repeat(b *bench, name string, sh shape, miss []byte) error {
	resp, err := b.query(s.cl, name, sh)
	if err != nil {
		return err
	}
	b.untimed("check", func() {
		if !resp.Cached {
			err = fmt.Errorf("repeated query was not served from the result cache")
			return
		}
		err = checkHit(resp, miss)
	})
	if err != nil {
		return err
	}
	return b.replayQuery(s.n, name, sh)
}

// shut stops the listener, drops the client's idle connection and lets go
// of the node; the mirror stays.
func (s *single) shut() {
	if s.n == nil {
		return
	}
	s.n.close()
	if s.cl.tr != nil {
		s.cl.tr.CloseIdleConnections()
	}
	s.n, s.cl = nil, client{}
}

func (s *single) counters() map[string]float64 { return serviceCounters(s.n.svc.Metrics()) }

// ---- adhoc ----

type adhocEnv struct{ single }

func setupAdhoc(b *bench, data *rand.Rand) (env, error) {
	e := &adhocEnv{single{table: "pts"}}
	eng := div.NewEngine()
	if err := e.load(eng, data, b.sz.adhocRows); err != nil {
		return nil, err
	}
	if err := e.start(b, eng); err != nil {
		return nil, err
	}
	return e, nil
}

// adhocInsertRows is the size of an adhoc operation's one insert request:
// a batch rather than a single row, so that mutate_p50_ms times the
// engine's insert path more than the sub-millisecond request overhead,
// which after a cold operation swings from run to run.
const adhocInsertRows = 16

// round is one adhoc operation: an insert of adhocInsertRows rows, then a
// fresh statement over a random x-window registered, queried once (half
// the operations twice) and deregistered.
func (e *adhocEnv) round(b *bench, r int) error {
	name := fmt.Sprintf("adhoc%d", r)
	sh := shape{K: 10, Lambda: 0.5, Objective: objectives[abs(r)%2]}
	ps := make([]point, adhocInsertRows)
	for i := range ps {
		ps[i] = genPoint(b.rng, e.nextID)
		e.nextID++
	}
	lo, hi := e.window(b.rng, ps, b.sz.adhocAnswers)
	src := fmt.Sprintf("Q(id, x, y, w) :- pts(id, x, y, w), x >= %d, x < %d", lo, hi)
	pred := func(p point) bool { return p.X >= lo && p.X < hi }
	return b.op("adhoc", func() error {
		if err := e.write(b, ps, false); err != nil {
			return err
		}
		if err := e.n.register(b, name, src); err != nil {
			return err
		}
		defer e.n.deregister(name)
		canon, err := e.queryChecked(b, name, sh, pred)
		if err != nil || !repeats(r) {
			return err
		}
		return e.repeat(b, name, sh, canon)
	})
}

// window picks a random x-window [lo, hi) that holds n of the table's
// rows once ps are inserted (one or two more or fewer where x values tie
// at its ends), so that every operation's statement has the same size.
func (e *adhocEnv) window(rng *rand.Rand, ps []point, n int) (lo, hi int64) {
	xs := make([]int64, 0, len(e.m.rows)+len(ps))
	for _, p := range e.m.rows {
		xs = append(xs, p.X)
	}
	for _, p := range ps {
		xs = append(xs, p.X)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := rng.Intn(len(xs) - n)
	return xs[i], xs[i+n]
}

func (e *adhocEnv) finish(*bench) error { return nil }
func (e *adhocEnv) close()              { e.shut() }

// ---- churn ----

type churnEnv struct {
	single
	dir string
	cfg div.DurabilityConfig
}

const churnStmt = "churn"

func setupChurn(b *bench, data *rand.Rand) (env, error) {
	dir, err := os.MkdirTemp(b.workDir, "churn-")
	if err != nil {
		return nil, err
	}
	// The flush policy is part of the workload: fsync off, so the numbers
	// are the engine's and the log's, not the device's.
	e := &churnEnv{single: single{table: "items"}, dir: dir, cfg: div.DurabilityConfig{Dir: dir, Fsync: "off"}}
	eng, _, err := div.OpenEngine(e.cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := e.load(eng, data, b.sz.churnRows); err != nil {
		eng.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	if err := e.start(b, eng); err != nil {
		eng.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	src := fmt.Sprintf("Q(id, x, y, w) :- items(id, x, y, w), x < %d", b.sz.churnCut)
	if err := e.n.register(b, churnStmt, src); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// round is one churn operation: an insert batch, two delete batches of
// existing rows (together as many rows as the insert), then a query (half
// the operations twice). Deletes are two of the three mutation requests,
// so mutate_p50_ms measures a delete.
func (e *churnEnv) round(b *bench, r int) error {
	sh := shape{K: 10, Lambda: 0.5, Objective: objectives[abs(r)%2]}
	cut := b.sz.churnCut
	pred := func(p point) bool { return p.X < cut }
	ins := make([]point, b.sz.churnBatch)
	for i := range ins {
		ins[i] = genPoint(b.rng, e.nextID)
		e.nextID++
	}
	del := make([]point, 0, b.sz.churnBatch)
	picked := map[int64]bool{}
	for len(del) < b.sz.churnBatch {
		id := e.m.ids[b.rng.Intn(len(e.m.ids))]
		if !picked[id] {
			picked[id] = true
			del = append(del, e.m.rows[id])
		}
	}
	return b.op("churn", func() error {
		if err := e.write(b, ins, false); err != nil {
			return err
		}
		half := len(del) / 2
		if err := e.write(b, del[:half], true); err != nil {
			return err
		}
		if err := e.write(b, del[half:], true); err != nil {
			return err
		}
		canon, err := e.queryChecked(b, churnStmt, sh, pred)
		if err != nil || !repeats(r) {
			return err
		}
		return e.repeat(b, churnStmt, sh, canon)
	})
}

// finish closes the engine, reopens it from its directory and checks that
// the recovered table equals the mirror.
func (e *churnEnv) finish(*bench) error {
	e.shutdown()
	eng, _, err := div.OpenEngine(e.cfg)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer eng.Close()
	rs, err := eng.Query("Q(id, x, y, w) :- items(id, x, y, w)")
	if err != nil {
		return fmt.Errorf("reopened table: %w", err)
	}
	if rs.Len() != len(e.m.rows) {
		return fmt.Errorf("reopened table has %d rows, want %d", rs.Len(), len(e.m.rows))
	}
	for i := 0; i < rs.Len(); i++ {
		row := rs.Row(i)
		id := rowI64(row, "id")
		p, ok := e.m.rows[id]
		w, _ := rowNum(row, "w")
		if !ok || rowI64(row, "x") != p.X || rowI64(row, "y") != p.Y || w != p.W {
			return fmt.Errorf("reopened row %v is not in the table's mirror", row)
		}
	}
	return nil
}

func (e *churnEnv) shutdown() {
	if e.n == nil {
		return
	}
	eng := e.n.eng
	e.shut()
	if err := eng.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: closing the churn engine: %v\n", err)
	}
}

func (e *churnEnv) close() {
	e.shutdown()
	os.RemoveAll(e.dir)
}

// ---- cluster ----

type clusterEnv struct {
	nodes  []*node
	coord  *cluster.Coordinator
	front  *server
	cl     client
	m      *mirror
	gens   []uint64 // per-shard generation
	nextID int64
	shapes []shape
	mix    []int                 // one round's queries, as shape indices
	flat   map[[2]uint64]float64 // (shape, cluster generation) → flat greedy value
	all    []point               // every row, id order, at allGen
	allGen uint64

	// traced runs: the last request's handler times
	frontNS atomic.Int64
	shardNS []atomic.Int64
}

const clusterStmt = "items"

func setupCluster(b *bench, data *rand.Rand) (env, error) {
	e := &clusterEnv{m: newMirror(), shapes: shapes(), mix: roundMix(len(shapes()), b.sz.round-1), flat: map[[2]uint64]float64{}, shardNS: make([]atomic.Int64, shards)}
	engs := make([]*div.Engine, shards)
	for i := range engs {
		engs[i] = div.NewEngine()
		if err := engs[i].CreateTable("items", "id", "cat", "w"); err != nil {
			return nil, err
		}
	}
	for id := int64(1); id <= int64(shards*b.sz.shardRows); id++ {
		p := genPoint(data, id)
		if err := engs[cluster.ShardOf(p.catRow(), shards)].Insert("items", p.catRow()...); err != nil {
			return nil, err
		}
		e.m.add(p)
	}
	e.nextID = int64(shards*b.sz.shardRows) + 1
	var urls []string
	for i, eng := range engs {
		i := i
		n, err := startNode(b, eng, "shard.handler", catScoring, func(d time.Duration, _ int64) { e.shardNS[i].Store(int64(d)) })
		if err != nil {
			e.close()
			return nil, err
		}
		e.nodes = append(e.nodes, n)
		if err := n.register(b, clusterStmt, "Q(id, cat, w) :- items(id, cat, w)"); err != nil {
			e.close()
			return nil, err
		}
		e.gens = append(e.gens, eng.Generation())
		urls = append(urls, n.srv.url)
	}
	coord, err := cluster.New(cluster.Config{Shards: urls, Slack: -1, DistanceAttr: "cat"})
	if err != nil {
		e.close()
		return nil, err
	}
	e.coord = coord
	h := httpapi.NewClusterHandler(coord)
	if b.tr != nil {
		h = b.tr.middleware("httpapi.handler", h, func(d time.Duration, _ int64) { e.frontNS.Store(int64(d)) })
	}
	if e.front, err = serve(h); err != nil {
		e.close()
		return nil, err
	}
	e.cl = newClient(e.front.url)
	for i := range e.shapes {
		if err := b.op("query", func() error { return e.queryShape(b, i) }); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

func (e *clusterEnv) gen() uint64 {
	sum := uint64(0)
	for _, g := range e.gens {
		sum += g
	}
	return sum
}

// flatValue is the flat greedy's value over every shard's rows.
func (e *clusterEnv) flatValue(i int) float64 {
	key := [2]uint64{uint64(i), e.gen()}
	if v, ok := e.flat[key]; ok {
		return v
	}
	if e.all == nil || e.allGen != e.gen() {
		e.all = e.m.answers(func(point) bool { return true })
		e.allGen = e.gen()
	}
	v := flatValue(catInstance(e.all), e.shapes[i])
	e.flat[key] = v
	return v
}

func (e *clusterEnv) queryShape(b *bench, i int) error {
	sh := e.shapes[i]
	resp, err := b.query(e.cl, clusterStmt, sh)
	if err != nil {
		return err
	}
	b.untimed("check", func() {
		if resp.Generation != e.gen() {
			err = fmt.Errorf("answer at cluster generation %d, the shards are at %d", resp.Generation, e.gen())
			return
		}
		err = checkCluster(resp, e.m, sh, e.flatValue(i))
	})
	if err != nil {
		return err
	}
	return e.replay(b, sh)
}

// replay is the traced run's cluster breakdown: the slowest shard handler,
// each shard call's time outside its handler, the coordinator's time
// outside the slowest shard call, and a coreset extraction replayed on
// shard 0's shadow service.
func (e *clusterEnv) replay(b *bench, sh shape) error {
	if b.tr == nil {
		return nil
	}
	var err error
	b.untimed("replay", func() {
		cm := e.coord.Metrics().Cluster
		slowest, slowestCall, rows := time.Duration(0), time.Duration(0), 0.0
		for i, st := range cm.ShardStats {
			h := time.Duration(e.shardNS[i].Load())
			call := time.Duration(st.LastLatencyNS)
			slowest = max(slowest, h)
			slowestCall = max(slowestCall, call)
			b.sampleLayer("cluster.shard_wire_ms", ms(call-h))
			rows += float64(st.LastCoresetSize)
		}
		b.sampleLayer("cluster.slowest_shard_ms", ms(slowest))
		b.sampleLayer("cluster.merge_ms", ms(time.Duration(e.frontNS.Load())-slowestCall))
		b.sampleLayer("cluster.coreset_rows", rows)

		n := e.nodes[0]
		k, lambda := sh.K, sh.Lambda
		obj, _ := div.ParseObjective(sh.Objective)
		var cs *div.Coreset
		d := b.span("coreset.extract", func() {
			cs, err = n.shadow.Coreset(b.ctx, clusterStmt, div.CoresetSpec{K: &k, Lambda: &lambda, Objective: &obj})
		})
		if err != nil {
			err = fmt.Errorf("shadow Service.Coreset: %w", err)
			return
		}
		b.sampleLayer("coreset.extract_ms", ms(d))
		if !cs.Cached {
			req := libRequest(sh)
			kp := cs.KPrime
			req.K = &kp
			err = b.replayPipeline(n, clusterStmt, req)
		}
	})
	var mets []div.Metrics
	for _, n := range e.nodes {
		mets = append(mets, n.svc.Metrics())
	}
	b.observePlanes(mets...)
	return err
}

// round is the zipf mix of round−1 queries, in a seed-shuffled order, and
// one insert of three rows, one owned by each shard, which advances every
// shard's generation.
func (e *clusterEnv) round(b *bench, r int) error {
	order := append([]int(nil), e.mix...)
	b.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, i := range order {
		if err := b.op("query", func() error { return e.queryShape(b, i) }); err != nil {
			return err
		}
	}
	ps := make([]point, shards)
	for have := 0; have < shards; {
		p := genPoint(b.rng, e.nextID)
		e.nextID++
		if s := cluster.ShardOf(p.catRow(), shards); ps[s].ID == 0 {
			ps[s] = p
			have++
		}
	}
	return b.op("insert", func() error { return e.write(b, ps) })
}

func (e *clusterEnv) write(b *bench, ps []point) error {
	rows := make([][]interface{}, len(ps))
	for i, p := range ps {
		rows[i] = p.catRow()
	}
	var mb httpapi.MutateBody
	var err error
	if b.tr != nil {
		owner := func(row []interface{}) *div.Engine { return e.nodes[cluster.ShardOf(row, shards)].eng }
		sum := func() uint64 {
			s := uint64(0)
			for _, n := range e.nodes {
				s += n.eng.Generation()
			}
			return s
		}
		mb, err = b.applyLocal(owner, sum, "items", rows, false)
	} else {
		mb, err = b.mutate(e.cl, "items", rows, false)
	}
	if err != nil {
		return err
	}
	for _, p := range ps {
		e.m.add(p)
		e.gens[cluster.ShardOf(p.catRow(), shards)]++
	}
	clear(e.flat)
	if mb.Applied != len(ps) || mb.Generation != e.gen() {
		return fmt.Errorf("mutation applied %d at cluster generation %d, want %d at %d", mb.Applied, mb.Generation, len(ps), e.gen())
	}
	return nil
}

func (e *clusterEnv) counters() map[string]float64 {
	var mets []div.Metrics
	for _, n := range e.nodes {
		mets = append(mets, n.svc.Metrics())
	}
	out := serviceCounters(mets...)
	for _, n := range e.nodes {
		out["conns"] += float64(n.srv.accepted.Load())
	}
	return out
}

func (e *clusterEnv) finish(*bench) error { return nil }

func (e *clusterEnv) close() {
	if e.front != nil {
		e.front.close()
		e.cl.tr.CloseIdleConnections()
	}
	for _, n := range e.nodes {
		n.close()
	}
	e.nodes, e.coord, e.front, e.cl = nil, nil, nil, client{}
}

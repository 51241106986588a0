package main

import (
	"fmt"
	"net/http"
	"time"

	div "repro"
	"repro/httpapi"
)

// scoring selects a statement's δrel/δdis bindings. Relevance is always the
// numeric attribute w.
type scoring int

const (
	euclidScoring scoring = iota // δdis = euclid over (x, y), a closure over Row.Get
	catScoring                   // δdis = 0/1 on cat, the distance cluster mode ships
)

func rowI64(r div.Row, attr string) int64 {
	v, _ := r.Get(attr).(int64)
	return v
}

// options builds a statement's options. With b set (traced runs) the
// closures count their calls into b.
func (sc scoring) options(b *bench) []div.Option {
	rel := div.AttrRelevance("w")
	dis := div.AttrDistance("cat")
	if sc == euclidScoring {
		dis = func(p, q div.Row) float64 {
			return euclid(rowI64(p, "x"), rowI64(p, "y"), rowI64(q, "x"), rowI64(q, "y"))
		}
	}
	if b != nil {
		rel0, dis0 := rel, dis
		rel = func(r div.Row) float64 { b.relCalls.Add(1); return rel0(r) }
		dis = func(p, q div.Row) float64 { b.disCalls.Add(1); return dis0(p, q) }
	}
	return []div.Option{div.WithRelevance(rel), div.WithDistance(dis), div.WithAlgorithm(div.Greedy)}
}

// node is one engine served by a Service over a loopback listener. In a
// traced run it also carries a shadow Service over the same engine, with
// the same statements scored by counting closures, and a probe handle per
// statement: the benchmark replays each query on them, layer by layer.
type node struct {
	eng *div.Engine
	svc *div.Service
	srv *server

	shadow *div.Service
	probes map[string]*div.Prepared
	srcs   map[string]string
	sc     scoring
}

// startNode serves eng. done, when the run is traced, receives each
// request's handler time and response bytes.
func startNode(b *bench, eng *div.Engine, spanName string, sc scoring, done func(time.Duration, int64)) (*node, error) {
	n := &node{eng: eng, svc: div.NewService(eng, div.ServiceConfig{}), sc: sc, srcs: make(map[string]string)}
	var h http.Handler = httpapi.NewHandler(n.svc)
	if b.wrap != nil {
		h = b.wrap(h)
	}
	if b.tr != nil {
		h = b.tr.middleware(spanName, h, done)
		n.shadow = div.NewService(eng, div.ServiceConfig{})
		n.probes = make(map[string]*div.Prepared)
	}
	srv, err := serve(h)
	if err != nil {
		return nil, err
	}
	n.srv = srv
	return n, nil
}

func (n *node) register(b *bench, name, src string) error {
	if err := n.svc.Register(name, src, n.sc.options(nil)...); err != nil {
		return fmt.Errorf("register %s: %w", name, err)
	}
	n.srcs[name] = src
	if n.shadow == nil {
		return nil
	}
	if err := n.shadow.Register(name, src, n.sc.options(b)...); err != nil {
		return fmt.Errorf("register shadow %s: %w", name, err)
	}
	p, err := n.eng.Prepare(src, n.sc.options(b)...)
	if err != nil {
		return fmt.Errorf("prepare probe %s: %w", name, err)
	}
	n.probes[name] = p
	return nil
}

func (n *node) deregister(name string) {
	n.svc.Deregister(name)
	delete(n.srcs, name)
	if n.shadow != nil {
		n.shadow.Deregister(name)
		delete(n.probes, name)
	}
}

func (n *node) close() {
	n.srv.close()
}

// replayQuery is a traced run's layer-by-layer replay of a query the
// client just sent: Service.Do on the shadow service (which has seen the
// same requests, so it hits and misses alike), and, when that ran a solve,
// Prepared.Refresh (with Engine.QueryContext when it rebuilt), Prepared.Plan
// and Plan.Execute on the probe handle.
func (b *bench) replayQuery(n *node, name string, s shape) error {
	if b.tr == nil {
		return nil
	}
	var err error
	b.untimed("replay", func() {
		var resp *div.Response
		d := b.span("service.do", func() { resp, err = n.shadow.Do(b.ctx, name, libRequest(s)) })
		if err != nil {
			err = fmt.Errorf("shadow Service.Do: %w", err)
			return
		}
		b.sampleLayer("service.do_ms", ms(d))
		if resp.Cached {
			b.sampleLayer("service.hit_ms", ms(d))
			return
		}
		err = b.replayPipeline(n, name, libRequest(s))
	})
	b.observePlanes(n.svc.Metrics())
	return err
}

// replayPipeline times the probe handle's refresh, plan and execute.
func (b *bench) replayPipeline(n *node, name string, req div.Request) error {
	probe := n.probes[name]
	dis0, rel0 := b.disCalls.Load(), b.relCalls.Load()
	var info div.RefreshInfo
	var err error
	d := b.span("prepare.refresh", func() { info, err = probe.Refresh(b.ctx) })
	if err != nil {
		return fmt.Errorf("probe Refresh: %w", err)
	}
	switch info.Mode {
	case "rebuild":
		b.sampleLayer("prepare.rebuild_ms", ms(d))
		de := b.span("eval.query", func() { _, err = n.eng.QueryContext(b.ctx, n.srcs[name]) })
		if err != nil {
			return fmt.Errorf("Engine.QueryContext: %w", err)
		}
		b.sampleLayer("eval.query_ms", ms(de))
		b.sampleLayer("objective.plane_ms", ms(d-de))
	case "delta":
		b.sampleLayer("prepare.delta_ms", ms(d))
		b.sampleLayer("prepare.delta_added", float64(info.Added))
		b.sampleLayer("prepare.delta_removed", float64(info.Removed))
		b.sampleLayer("prepare.delta_rechecked", float64(info.Rechecked))
	}
	if info.Mode != "warm" {
		b.sampleLayer("objective.dis_calls", float64(b.disCalls.Load()-dis0))
		b.sampleLayer("objective.rel_calls", float64(b.relCalls.Load()-rel0))
	}
	b.sampleLayer("prepare.answers", float64(info.Answers))
	var pl *div.Plan
	d = b.span("pipeline.plan", func() { pl, err = probe.Plan(b.ctx, req) })
	if err != nil {
		return fmt.Errorf("probe Plan: %w", err)
	}
	b.sampleLayer("pipeline.plan_ms", ms(d))
	dis0 = b.disCalls.Load()
	var resp *div.Response
	d = b.span("pipeline.execute", func() { resp, err = pl.Execute(b.ctx) })
	if err != nil {
		return fmt.Errorf("probe Execute: %w", err)
	}
	b.sampleLayer("pipeline.execute_ms", ms(d))
	b.sampleLayer("pipeline.steps", float64(resp.Stats.Steps))
	b.sampleLayer("approx.dis_calls", float64(b.disCalls.Load()-dis0))
	return nil
}

// observePlanes samples the resident score planes' regimes and bytes.
func (b *bench) observePlanes(ms ...div.Metrics) {
	if b.tr == nil || !b.timed.Load() {
		return
	}
	regimes := map[string]float64{}
	bytes := 0.0
	for _, m := range ms {
		if m.Plane == nil {
			continue
		}
		for r, c := range m.Plane.Regimes {
			regimes[r] += float64(c)
		}
		bytes += float64(m.Plane.EstimatedBytes)
	}
	for _, r := range []string{"materialized", "tiled", "indexed", "memoized"} {
		b.sampleLayer("objective.regime_"+r, regimes[r])
	}
	b.sampleLayer("objective.plane_bytes", bytes)
}

// serviceCounters are the cumulative Service counters the per-layer
// metrics difference over the timed phase.
func serviceCounters(ms ...div.Metrics) map[string]float64 {
	out := map[string]float64{}
	for _, m := range ms {
		out["cache.hits"] += float64(m.Cache.Hits)
		out["cache.misses"] += float64(m.Cache.Misses)
		out["cache.invalidations"] += float64(m.Cache.Invalidations)
		if m.Plane != nil {
			out["plane.memo_evictions"] += float64(m.Plane.MemoEvictions)
		}
		if m.Durability != nil {
			out["wal.bytes"] += float64(m.Durability.WALBytes)
			out["wal.records"] += float64(m.Durability.WALRecords)
		}
	}
	return out
}

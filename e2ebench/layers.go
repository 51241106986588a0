package main

// perLayer lists the traced run's metrics in output order, with units.
var perLayer = []struct{ name, unit string }{
	{"httpapi.roundtrip_ms", "ms"},
	{"httpapi.handler_ms", "ms"},
	{"httpapi.wire_ms", "ms"},
	{"httpapi.resp_bytes", "bytes"},
	{"service.do_ms", "ms"},
	{"service.hit_ms", "ms"},
	{"service.cache_hits", "count"},
	{"service.cache_misses", "count"},
	{"service.cache_invalidations", "count"},
	{"service.hit_ratio", "ratio"},
	{"pipeline.plan_ms", "ms"},
	{"pipeline.execute_ms", "ms"},
	{"pipeline.steps", "count"},
	{"prepare.rebuild_ms", "ms"},
	{"prepare.delta_ms", "ms"},
	{"prepare.delta_added", "count"},
	{"prepare.delta_removed", "count"},
	{"prepare.delta_rechecked", "count"},
	{"prepare.answers", "count"},
	{"eval.query_ms", "ms"},
	{"objective.plane_ms", "ms"},
	{"objective.dis_calls", "count"},
	{"objective.rel_calls", "count"},
	{"objective.plane_bytes", "bytes"},
	{"objective.regime_materialized", "count"},
	{"objective.regime_tiled", "count"},
	{"objective.regime_indexed", "count"},
	{"objective.regime_memoized", "count"},
	{"objective.memo_evictions", "count"},
	{"approx.dis_calls", "count"},
	{"relation.insert_ms", "ms"},
	{"relation.delete_ms", "ms"},
	{"wal.bytes_per_mutation", "bytes"},
	{"wal.records", "count"},
	{"cluster.slowest_shard_ms", "ms"},
	{"cluster.shard_wire_ms", "ms"},
	{"cluster.merge_ms", "ms"},
	{"cluster.coreset_rows", "count"},
	{"cluster.conns_new", "count"},
	{"coreset.extract_ms", "ms"},
}

// layerMetrics derives the per-layer metrics of a traced run from its
// spans, its replay samples, and the program's counters at the start and
// end of the timed phase. A layer the workload does not reach reads 0.
func (b *bench) layerMetrics(start, end map[string]float64) map[string]metric {
	v := map[string]float64{}
	// Medians of times, means of sizes and counts.
	for name, xs := range b.layer {
		switch name {
		case "objective.dis_calls", "objective.rel_calls", "approx.dis_calls", "pipeline.steps",
			"prepare.delta_added", "prepare.delta_removed", "prepare.delta_rechecked", "prepare.answers",
			"objective.plane_bytes", "cluster.coreset_rows",
			"objective.regime_materialized", "objective.regime_tiled", "objective.regime_indexed", "objective.regime_memoized":
			v[name] = mean(xs)
		default:
			v[name] = median(xs)
		}
	}

	kids := b.tr.children()
	var rt, wire, handler, bytes []float64
	for _, s := range b.tr.spans {
		switch s.Name {
		case "httpapi.roundtrip":
			h := s.dur()
			for _, k := range kids[s.ID] {
				if k.Name == "httpapi.handler" {
					h -= k.dur()
				}
			}
			rt = append(rt, ms(s.dur()))
			wire = append(wire, ms(h))
		case "httpapi.handler":
			handler = append(handler, ms(s.dur()))
			bytes = append(bytes, float64(s.Bytes))
		}
	}
	v["httpapi.roundtrip_ms"] = median(rt)
	v["httpapi.handler_ms"] = median(handler)
	v["httpapi.wire_ms"] = median(wire)
	v["httpapi.resp_bytes"] = mean(bytes)

	delta := func(k string) float64 { return end[k] - start[k] }
	hits, misses := delta("cache.hits"), delta("cache.misses")
	v["service.cache_hits"] = hits
	v["service.cache_misses"] = misses
	v["service.cache_invalidations"] = delta("cache.invalidations")
	if hits+misses > 0 {
		v["service.hit_ratio"] = hits / (hits + misses)
	}
	v["objective.memo_evictions"] = delta("plane.memo_evictions")
	if recs := delta("wal.records"); recs > 0 {
		v["wal.records"] = recs
		v["wal.bytes_per_mutation"] = delta("wal.bytes") / recs
	}
	v["cluster.conns_new"] = delta("conns")

	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	return out
}

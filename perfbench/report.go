package main

import (
	"fmt"
	"math"
	"time"
)

// metricDef is one reported figure; BENCHMARK.json lists the same names
// and units (a self-test holds the two together).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_qps", "req/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"heap_peak_mb", "MB"},
}

var perLayer = []metricDef{
	{"serve.self_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.resp_bytes", "bytes"},
	{"serve.rejected", "count"},
	{"engine.build_ms", "ms"},
	{"engine.lookup_ms", "ms"},
	{"engine.flight_self_ms", "ms"},
	{"engine.hit_ratio", "fraction"},
	{"engine.sds_hit_ratio", "fraction"},
	{"engine.evictions_per_req", "1/req"},
	{"engine.deduped", "count"},
	{"topology.subdivide_ms", "ms"},
	{"topology.facets_per_ms", "1/ms"},
	{"topology.invariants_ms", "ms"},
	{"solver.search_ms", "ms"},
	{"solver.nodes", "count"},
	{"converge.map_ms", "ms"},
	{"sched.replay_ms", "ms"},
	{"cluster.route_ms", "ms"},
	{"cluster.fill_ms", "ms"},
	{"cluster.fill_hit_ratio", "fraction"},
	{"cluster.forwarded_frac", "fraction"},
	{"cluster.forward_errors", "count"},
	{"runtime.allocs_per_req", "1/req"},
	{"runtime.alloc_kb_per_req", "KB"},
	{"runtime.gc_per_kreq", "count"},
	{"unattributed_frac", "fraction"},
	{"trace_overhead_frac", "fraction"},
}

// attributionTarget is the ROADMAP's bar: the layers must cover all but
// this share of the client-measured latency.
const attributionTarget = 0.10

// unspanned are a request's layer times that no span records; the
// benchmark timed the public functions itself.
type unspanned struct {
	encodeMs, buildMs, invariantsMs, replayMs float64
}

// traced is a traced run's raw material. Per-request span and timing
// figures average over the attributed records; counter and runtime ratios
// over every request of the run.
type traced struct {
	p         *phase
	attr      *attributor // span self times of every attributed record
	own       func(r *rec) unspanned
	rounds    int // traced cold-solve rounds (solver.nodes is per round there)
	cnt       counters
	qpsPlain  float64 // untraced throughput in the same run
	qpsTraced float64
}

// layers reduces a traced run to the per-layer metrics — span self times,
// the benchmark's own timings, and counter ratios, each per request — and
// reports how many requests were attributed.
// Coverage for unattributed_frac is the root span (which its self-time
// arithmetic partitions among the layers) plus the response encode that
// runs after it closes; the rest of the client latency — TimeoutHandler,
// writers, TCP, the client — is what no layer metric covers.
func layers(t traced) (map[string]float64, []string, int) {
	sum := map[string]float64{}
	var latMs, uncovered, n, req float64
	t.p.each(func(_ *tape, r *rec) {
		req++
		if !r.traced || !r.ok {
			return
		}
		n++
		o := t.own(r)
		lat, root := ms(time.Duration(r.lat)), float64(r.rootMs)
		latMs += lat
		sum["serve.transport_ms"] += lat - root
		sum["serve.encode_ms"] += o.encodeMs
		sum["engine.build_ms"] += o.buildMs
		sum["topology.invariants_ms"] += o.invariantsMs
		sum["sched.replay_ms"] += o.replayMs
		sum["serve.resp_bytes"] += float64(r.bodyLen)
		out := lat - root
		if !r.fwd {
			// A forwarded answer was encoded on its owner, inside this
			// node's cluster.route span.
			out -= o.encodeMs
		}
		uncovered += out
	})
	for k, v := range t.attr.self {
		sum[k] += v
	}
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = ratio(sum[d.name], n)
	}
	c, rt := t.cnt, t.p.rt
	m["serve.rejected"] = float64(c.rejected)
	m["engine.hit_ratio"] = ratio(float64(c.hits), float64(c.hits+c.misses))
	m["engine.sds_hit_ratio"] = ratio(float64(c.sdsHit), float64(c.sdsHit+c.sdsMiss))
	m["engine.evictions_per_req"] = ratio(float64(c.evictions), req)
	m["engine.deduped"] = float64(c.deduped)
	m["topology.facets_per_ms"] = ratio(float64(t.attr.facets), sum["topology.subdivide_ms"])
	if t.rounds > 0 {
		m["solver.nodes"] = float64(t.attr.nodes) / float64(t.rounds)
	} else {
		m["solver.nodes"] = ratio(float64(t.attr.nodes), n)
	}
	m["cluster.fill_hit_ratio"] = ratio(float64(c.fillHit), float64(c.fillHit+c.fillMiss))
	m["cluster.forwarded_frac"] = ratio(float64(c.forwarded), req)
	m["cluster.forward_errors"] = float64(c.forwardErrs)
	m["runtime.allocs_per_req"] = ratio(float64(rt.allocObjects), req)
	m["runtime.alloc_kb_per_req"] = ratio(float64(rt.allocBytes)/1024, req)
	m["runtime.gc_per_kreq"] = ratio(1000*float64(rt.gcCycles), req)
	m["unattributed_frac"] = ratio(uncovered, latMs)
	m["trace_overhead_frac"] = 1 - ratio(t.qpsTraced, t.qpsPlain)

	var notes []string
	if u := m["unattributed_frac"]; math.Abs(u) > attributionTarget {
		notes = append(notes, fmt.Sprintf("FLAG: layers sum to %.1f%% of client latency; %.1f%% is unattributed (target: within %.0f%%)",
			100*(1-u), 100*u, 100*attributionTarget))
	}
	return m, notes, int(n)
}

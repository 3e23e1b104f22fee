package main

import (
	"strings"

	"waitfree/internal/obs"
)

// spanLayer maps the spans the server records to the per-layer metric that
// owns their self time. The root http.<endpoint> span is the serve layer.
// A span not listed here folds into its nearest listed ancestor, so a new
// sub-span leaves the named metrics' totals unchanged.
var spanLayer = map[string]string{
	"cache.lookup":  "engine.lookup_ms",
	"flight.wait":   "engine.flight_self_ms",
	"sds.subdivide": "topology.subdivide_ms",
	"solver.search": "solver.search_ms",
	"converge.map":  "converge.map_ms",
	"cluster.route": "cluster.route_ms",
	"cluster.fill":  "cluster.fill_ms",
}

const serveSelf = "serve.self_ms"

// attributor sums span self times — a span's duration minus its direct
// children's — per owning layer metric over many traces, plus the exact
// counts the spans carry. It reuses its buffers, so attributing a trace
// inside a timed phase allocates nothing once warm.
type attributor struct {
	self          map[string]float64
	nodes, facets int64 // solver.search nodes; sds.subdivide facets built
	childMs       []float64
	owner         []string
}

func newAttributor() *attributor {
	a := &attributor{self: map[string]float64{serveSelf: 0}}
	for _, m := range spanLayer {
		a.self[m] = 0
	}
	return a
}

// add attributes one trace and returns its root duration and whether the
// root relayed an owner's answer (a cluster hop). Spans are stored in
// start order, so a parent always precedes its children.
func (a *attributor) add(ts *obs.TraceSnapshot) (rootMs float64, forwarded bool) {
	n := len(ts.Spans)
	if cap(a.childMs) < n {
		a.childMs, a.owner = make([]float64, n), make([]string, n)
	}
	a.childMs, a.owner = a.childMs[:n], a.owner[:n]
	clear(a.childMs)
	for _, s := range ts.Spans {
		if s.Parent >= 0 && s.Parent < n {
			a.childMs[s.Parent] += s.DurationMs
		}
	}
	for i, s := range ts.Spans {
		layer, ok := spanLayer[s.Name]
		switch {
		case ok:
		case s.Parent >= 0 && s.Parent < i:
			layer = a.owner[s.Parent]
		default:
			layer = serveSelf
			if strings.HasPrefix(s.Name, "http.") {
				rootMs += s.DurationMs
				forwarded = forwarded || s.Ints["cluster.hop"] > 0
			}
		}
		a.owner[i] = layer
		a.self[layer] += s.DurationMs - a.childMs[i]
		switch s.Name {
		case "solver.search":
			a.nodes += s.Ints["nodes"]
		case "sds.subdivide":
			a.facets += s.Ints["facets_out"]
		}
	}
	return rootMs, forwarded
}

// merge folds b's sums into a.
func (a *attributor) merge(b *attributor) {
	for k, v := range b.self {
		a.self[k] += v
	}
	a.nodes += b.nodes
	a.facets += b.facets
}

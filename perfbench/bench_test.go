package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"waitfree/internal/engine"
	"waitfree/internal/obs"
)

func TestTailIndexKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want int
	}{
		{0, 0.99, -1},
		{1, 0.99, 0},
		{5, 0.50, 0},     // too few samples: the lowest index is all that is left
		{11, 0.99, 0},    // exactly ten beyond index 0
		{100, 0.50, 49},  // nearest rank, untouched
		{500, 0.99, 489}, // p99 would leave 5 beyond; fall back to p97.8
		{1000, 0.99, 989},
		{2000, 0.99, 1979}, // enough samples: plain p99
	}
	for _, c := range cases {
		got := tailIndex(c.n, c.q)
		if got != c.want {
			t.Errorf("tailIndex(%d, %g) = %d, want %d", c.n, c.q, got, c.want)
		}
		if got >= 0 && c.n > minTail && c.n-1-got < minTail {
			t.Errorf("tailIndex(%d, %g) = %d leaves %d samples beyond", c.n, c.q, got, c.n-1-got)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if got := percentile(xs[:200], 0.99); got != 190 {
		t.Errorf("p99 of 1..200 = %g, want 190 (ten samples beyond)", got)
	}
}

func TestAttributeSelfTimes(t *testing.T) {
	ts := &obs.TraceSnapshot{Spans: []obs.SpanSnapshot{
		{Name: "http.solve", Parent: -1, DurationMs: 10},
		{Name: "cache.lookup", Parent: 0, DurationMs: 1},
		{Name: "flight.wait", Parent: 0, DurationMs: 8},
		{Name: "sds.subdivide", Parent: 2, DurationMs: 3, Ints: map[string]int64{"facets_out": 13}},
		{Name: "solver.search", Parent: 2, DurationMs: 4, Ints: map[string]int64{"nodes": 7}},
		// An unmapped span folds into its nearest mapped ancestor.
		{Name: "solver.propagate", Parent: 4, DurationMs: 1.5},
	}}
	a := newAttributor()
	root, forwarded := a.add(ts)
	want := map[string]float64{
		"serve.self_ms":         1,
		"engine.lookup_ms":      1,
		"engine.flight_self_ms": 1,
		"topology.subdivide_ms": 3,
		"solver.search_ms":      4,
	}
	var sum float64
	for k, v := range a.self {
		sum += v
		if v != want[k] {
			t.Errorf("%s = %g, want %g", k, v, want[k])
		}
	}
	if root != 10 || math.Abs(sum-root) > 1e-9 {
		t.Fatalf("root %g, self times sum to %g; want both 10", root, sum)
	}
	if a.nodes != 7 || a.facets != 13 || forwarded {
		t.Fatalf("nodes=%d facets=%d forwarded=%v, want 7, 13, false", a.nodes, a.facets, forwarded)
	}

	f := newAttributor()
	if _, forwarded := f.add(&obs.TraceSnapshot{Spans: []obs.SpanSnapshot{
		{Name: "http.adversary", Parent: -1, DurationMs: 5, Ints: map[string]int64{"cluster.hop": 1}},
		{Name: "cluster.route", Parent: 0, DurationMs: 4},
		{Name: "cluster.fill", Parent: 1, DurationMs: 0.5},
	}}); !forwarded || f.self["cluster.route_ms"] != 3.5 || f.self["cluster.fill_ms"] != 0.5 || f.self[serveSelf] != 1 {
		t.Fatalf("forwarded trace attributed as %v (forwarded=%v)", f.self, forwarded)
	}
	// Attributing a second trace adds to the same sums.
	a.add(ts)
	if a.self["solver.search_ms"] != 8 || a.nodes != 14 {
		t.Fatalf("second trace: solver.search_ms=%g nodes=%d, want 8 and 14", a.self["solver.search_ms"], a.nodes)
	}
}

func TestStreamsAreSeeded(t *testing.T) {
	draw := func(seed int64, client int) []any {
		s := newStream(seed, client)
		var out []any
		for i := 0; i < 50; i++ {
			out = append(out, s.pick(16))
		}
		out = append(out, s.shuffle(9))
		for i := 0; i < 50; i++ {
			at, req := s.freshAt(3)
			out = append(out, at, req)
		}
		return out
	}
	if !reflect.DeepEqual(draw(7, 0), draw(7, 0)) {
		t.Fatal("the same seed and client gave different request streams")
	}
	if reflect.DeepEqual(draw(7, 0), draw(8, 0)) {
		t.Fatal("different seeds gave the same request stream")
	}
	if reflect.DeepEqual(draw(7, 0), draw(7, 1)) {
		t.Fatal("two clients of one run share a request stream")
	}
}

func TestFreshReplaysFinishUnderTheirCap(t *testing.T) {
	s := newStream(1, 0)
	for _, algo := range freshAlgos {
		for _, adv := range freshAdversaries {
			for _, procs := range freshProcs {
				for i := 0; i < 3; i++ {
					_, d := s.freshAt(1)
					req := engine.AdversaryRequest{Algo: algo, Adversary: adv, Procs: procs, Seed: d.seed, MaxSteps: freshMaxSteps}
					resp, err := engine.RunAdversary(req)
					if err != nil {
						t.Fatalf("%+v: %v", req, err)
					}
					if resp.TotalSteps > freshMaxSteps {
						t.Fatalf("%+v ran %d steps, over its cap", req, resp.TotalSteps)
					}
				}
			}
		}
	}
}

func TestBenchmarkJSONMatchesTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), benchmark reports %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

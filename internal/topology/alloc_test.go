package topology

import "testing"

// Allocation budgets for the subdivision hot path. The arena representation
// exists to keep SDS construction off the allocator: a facet's worth of
// work reuses the builder's versioned intern tables and appends into shared
// arenas, and no vertex-key strings materialize. Measured on go1.24:
// SDS(s²) ≈ 99 allocs, SDSPow(s², 3) ≈ 3,915 allocs (the legacy string-
// keyed path cost ~367,000 for the latter — a ~94× reduction). The ceilings
// below leave ~50% headroom for toolchain drift while still catching any
// reintroduction of per-vertex key materialization, which would blow the
// budget by an order of magnitude.
//
// Budgets are skipped under -race: instrumentation changes allocation
// behavior and AllocsPerRun's accounting.

func TestSDSAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	base := Simplex(2)
	got := testing.AllocsPerRun(20, func() { SDS(base) })
	const budget = 150
	if got > budget {
		t.Errorf("SDS(s²): %.0f allocs/run, budget %d", got, budget)
	}
}

func TestSDSPowAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	base := Simplex(2)
	got := testing.AllocsPerRun(5, func() { SDSPow(base, 3) })
	const budget = 6000
	if got > budget {
		t.Errorf("SDSPow(s², 3): %.0f allocs/run, budget %d", got, budget)
	}
}

// TestLegacyAllocGap documents why the arena path exists: the legacy
// string-keyed construction must remain at least an order of magnitude
// more allocation-hungry than the arena path on the same input. If this
// gap closes it means the arena path regressed to materializing keys.
func TestLegacyAllocGap(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	if testing.Short() {
		t.Skip("legacy SDSPow is slow; skipped in -short")
	}
	base := Simplex(2)
	arena := testing.AllocsPerRun(3, func() { SDSPow(base, 3) })
	legacy := testing.AllocsPerRun(3, func() { legacySDSPow(base, 3) })
	if legacy < 10*arena {
		t.Errorf("alloc gap collapsed: arena %.0f, legacy %.0f (want ≥10×)", arena, legacy)
	}
}

// TestHasSimplexAllocFree pins HasSimplex's stack-buffer sort: the solver's
// edge-class tables and converge's map search call it in their inner
// loops, on unsorted inputs of a handful of vertices.
func TestHasSimplexAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	c := SDS(Simplex(3))
	f := c.Facets()[len(c.Facets())/2]
	rev := []Vertex{f[3], f[1], f[2], f[0]}
	edge := []Vertex{f[2], f[0]}
	got := testing.AllocsPerRun(100, func() {
		if !c.HasSimplex(rev) || !c.HasSimplex(edge) {
			t.Fatal("facet subsets reported missing")
		}
	})
	if got != 0 {
		t.Errorf("HasSimplex: %.1f allocs/run, want 0", got)
	}
}

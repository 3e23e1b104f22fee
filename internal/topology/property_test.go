package topology

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// randomChromaticComplex is the shared seeded generator from gen.go; the
// alias keeps the historical test spelling.
var randomChromaticComplex = RandomChromaticComplex

// TestSDSPropertiesOnRandomComplexes: for random chromatic complexes,
// SDS(C) must be chromatic, have Σ Fubini(|facet|) facets, carriers that
// are faces of C, and the same Euler characteristic.
func TestSDSPropertiesOnRandomComplexes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomChromaticComplex(rng)
		sds := SDS(c)

		if !sds.IsChromatic() {
			t.Logf("seed %d: SDS not chromatic", seed)
			return false
		}
		want := 0
		for _, facet := range c.Facets() {
			want += CountOrderedPartitions(len(facet))
		}
		if len(sds.Facets()) != want {
			t.Logf("seed %d: %d facets, want %d", seed, len(sds.Facets()), want)
			return false
		}
		for v := 0; v < sds.NumVertices(); v++ {
			if !c.HasSimplex(sds.Carrier(Vertex(v))) {
				t.Logf("seed %d: carrier of %d not a face of base", seed, v)
				return false
			}
		}
		if sds.EulerCharacteristic() != c.EulerCharacteristic() {
			t.Logf("seed %d: χ changed: %d vs %d", seed, sds.EulerCharacteristic(), c.EulerCharacteristic())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestBsdPropertiesOnRandomComplexes: Bsd(C) has Σ (|facet|)! facets and
// preserves χ.
func TestBsdPropertiesOnRandomComplexes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomChromaticComplex(rng)
		bsd := Bsd(c)
		want := 0
		for _, facet := range c.Facets() {
			want += factorial(len(facet))
		}
		if len(bsd.Facets()) != want {
			t.Logf("seed %d: %d facets, want %d", seed, len(bsd.Facets()), want)
			return false
		}
		return bsd.EulerCharacteristic() == c.EulerCharacteristic()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestHasSimplexAgreesWithClosure: HasSimplex must agree with membership in
// the explicit closure AllSimplices.
func TestHasSimplexAgreesWithClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		c := randomChromaticComplex(rng)
		inClosure := make(map[string]bool)
		for _, byDim := range c.AllSimplices() {
			for _, s := range byDim {
				inClosure[simplexKey(s)] = true
			}
		}
		// Check every subset of the vertex set up to size 3.
		n := c.NumVertices()
		for mask := 1; mask < 1<<n && n <= 10; mask++ {
			var s []Vertex
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					s = append(s, Vertex(i))
				}
			}
			if len(s) > 3 {
				continue
			}
			want := inClosure[simplexKey(s)]
			if got := c.HasSimplex(s); got != want {
				t.Fatalf("trial %d: HasSimplex(%v) = %v, closure says %v", trial, s, got, want)
			}
		}
	}
}

// TestSDSStructuredArenaInvariants checks the provenance arrays of the
// arena-built SDSLevel against the paper's (u, S) vertex structure: S is
// sorted, u ∈ S, colors are inherited from u, every S is a simplex of the
// previous level, and the carrier of (u, S) is exactly the union of the
// carriers of S's vertices (or S itself when the previous level is a base
// complex).
func TestSDSStructuredArenaInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomChromaticComplex(rng)
		// Two levels: the first has a base complex as Prev, the second a
		// subdivision — the two carrier codepaths of the merger.
		lvl := SDSStructured(c)
		for depth := 0; depth < 2; depth++ {
			prev := lvl.Prev
			sds := lvl.Complex
			if sds.prov == nil || sds.prov.kind != provSDS {
				t.Logf("seed %d depth %d: SDSStructured result lost arena provenance", seed, depth)
				return false
			}
			if len(lvl.U) != sds.NumVertices() || len(lvl.S) != sds.NumVertices() {
				t.Logf("seed %d depth %d: U/S length mismatch", seed, depth)
				return false
			}
			for v := 0; v < sds.NumVertices(); v++ {
				u, s := lvl.U[v], lvl.S[v]
				found := false
				for i, w := range s {
					if i > 0 && s[i-1] >= w {
						t.Logf("seed %d depth %d vertex %d: S not strictly sorted", seed, depth, v)
						return false
					}
					if w == u {
						found = true
					}
				}
				if !found {
					t.Logf("seed %d depth %d vertex %d: u ∉ S", seed, depth, v)
					return false
				}
				if sds.Color(Vertex(v)) != prev.Color(u) {
					t.Logf("seed %d depth %d vertex %d: color not inherited", seed, depth, v)
					return false
				}
				if !prev.HasSimplex(s) {
					t.Logf("seed %d depth %d vertex %d: S not a simplex of Prev", seed, depth, v)
					return false
				}
				want := prev.CarrierOfSimplex(s)
				got := sds.Carrier(Vertex(v))
				if len(got) != len(want) {
					t.Logf("seed %d depth %d vertex %d: carrier %v, want %v", seed, depth, v, got, want)
					return false
				}
				for i := range got {
					if got[i] != want[i] {
						t.Logf("seed %d depth %d vertex %d: carrier %v, want %v", seed, depth, v, got, want)
						return false
					}
				}
			}
			lvl = SDSStructured(sds)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestLazyKeyConcurrentReaders hammers the lazy materialization boundary of
// an arena-built complex from many goroutines at once: Key, VertexByKey,
// Carrier, Link, CanonicalString, and CanonicalHash all race to trigger the
// sync.Once key/byKey builds. Run under -race this pins the thread-safety
// contract of the lazy path; the assertions pin agreement with a complex
// whose keys were never lazy.
func TestLazyKeyConcurrentReaders(t *testing.T) {
	c := Simplex(2)
	oracle := legacySDS(c) // eager keys by construction
	const readers = 8
	for trial := 0; trial < 4; trial++ {
		arena := SDS(c) // fresh arena: keys not yet materialized
		var wg sync.WaitGroup
		errs := make(chan string, readers)
		for r := 0; r < readers; r++ {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				switch r % 4 {
				case 0:
					for v := 0; v < arena.NumVertices(); v++ {
						if arena.Key(Vertex(v)) != oracle.Key(Vertex(v)) {
							errs <- "Key mismatch"
							return
						}
					}
				case 1:
					for v := 0; v < oracle.NumVertices(); v++ {
						w, ok := arena.VertexByKey(oracle.Key(Vertex(v)))
						if !ok || w != Vertex(v) {
							errs <- "VertexByKey mismatch"
							return
						}
					}
				case 2:
					if arena.CanonicalHash() != oracle.CanonicalHash() {
						errs <- "CanonicalHash mismatch"
						return
					}
				case 3:
					for v := 0; v < arena.NumVertices(); v++ {
						sc, oc := arena.Carrier(Vertex(v)), oracle.Carrier(Vertex(v))
						if len(sc) != len(oc) {
							errs <- "Carrier mismatch"
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}

// TestLinkVertexCounts: the link of a vertex v contains exactly the
// vertices sharing a facet with v.
func TestLinkVertexCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		c := randomChromaticComplex(rng)
		for v := 0; v < c.NumVertices(); v++ {
			neighbors := make(map[string]bool)
			inAnyFacet := false
			for _, f := range c.Facets() {
				has := false
				for _, u := range f {
					if u == Vertex(v) {
						has = true
					}
				}
				if !has {
					continue
				}
				inAnyFacet = true
				for _, u := range f {
					if u != Vertex(v) {
						neighbors[c.Key(u)] = true
					}
				}
			}
			if !inAnyFacet {
				continue
			}
			link := c.Link([]Vertex{Vertex(v)})
			if link.NumVertices() != len(neighbors) {
				t.Fatalf("trial %d vertex %d: link has %d vertices, want %d",
					trial, v, link.NumVertices(), len(neighbors))
			}
		}
	}
}

// simplexKey canonically encodes a sorted vertex slice.
func simplexKey(s []Vertex) string {
	var b strings.Builder
	for i, v := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

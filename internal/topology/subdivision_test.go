package topology

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestCountOrderedPartitions(t *testing.T) {
	// Fubini numbers.
	want := []int{1, 1, 3, 13, 75, 541, 4683}
	for n, w := range want {
		if got := CountOrderedPartitions(n); got != w {
			t.Errorf("CountOrderedPartitions(%d) = %d, want %d", n, got, w)
		}
	}
}

func TestForEachOrderedPartitionMatchesCount(t *testing.T) {
	for n := 1; n <= 5; n++ {
		count := 0
		ForEachOrderedPartition(n, func(blocks [][]int) {
			count++
			// Blocks partition {0..n-1}.
			seen := make(map[int]bool)
			for _, b := range blocks {
				if len(b) == 0 {
					t.Fatal("empty block")
				}
				for _, x := range b {
					if seen[x] {
						t.Fatalf("element %d repeated", x)
					}
					seen[x] = true
				}
			}
			if len(seen) != n {
				t.Fatalf("partition covers %d elements, want %d", len(seen), n)
			}
		})
		if want := CountOrderedPartitions(n); count != want {
			t.Errorf("n=%d: enumerated %d partitions, want %d", n, count, want)
		}
	}
}

func TestSDSOfTriangleFacetCount(t *testing.T) {
	// Lemma 3.2: SDS(s²) is the one-shot IS complex: 13 facets (ordered
	// partitions of 3 elements).
	sds := SDS(Simplex(2))
	if got := len(sds.Facets()); got != 13 {
		t.Fatalf("SDS(s²) has %d facets, want 13", got)
	}
	// Vertices: pairs (i, S) with i ∈ S ⊆ {0,1,2}: 3·1 + 3·2 + 1·3 = 12.
	if got := sds.NumVertices(); got != 12 {
		t.Fatalf("SDS(s²) has %d vertices, want 12", got)
	}
	if !sds.IsPure() || sds.Dimension() != 2 {
		t.Fatal("SDS(s²) not a pure 2-complex")
	}
	if !sds.IsChromatic() {
		t.Fatal("SDS(s²) not chromatic")
	}
}

func TestSDSVertexCountFormula(t *testing.T) {
	// Vertices of SDS(sⁿ): Σ_{k=1..n+1} k·C(n+1,k).
	for n := 0; n <= 3; n++ {
		want := 0
		for k := 1; k <= n+1; k++ {
			want += k * binomial(n+1, k)
		}
		sds := SDS(Simplex(n))
		if got := sds.NumVertices(); got != want {
			t.Errorf("SDS(s^%d): %d vertices, want %d", n, got, want)
		}
		if got := len(sds.Facets()); got != CountOrderedPartitions(n+1) {
			t.Errorf("SDS(s^%d): %d facets, want Fubini(%d)=%d",
				n, got, n+1, CountOrderedPartitions(n+1))
		}
	}
}

func TestSDSPowFacetGrowth(t *testing.T) {
	// Lemma 3.3: SDS^b(s²) has 13^b facets.
	c := Simplex(2)
	want := 1
	for b := 0; b <= 3; b++ {
		if got := len(c.Facets()); got != want {
			t.Fatalf("SDS^%d(s²): %d facets, want %d", b, got, want)
		}
		c = SDS(c)
		want *= 13
	}
}

func TestSDSCarriers(t *testing.T) {
	s := Simplex(2)
	sds := SDS(s)
	if sds.Base() != s {
		t.Fatal("SDS base is not the original simplex")
	}
	// Corner vertices (i, {i}) have carrier {i}; the central facet (single
	// block partition) has vertices with full carrier.
	corners := 0
	for v := 0; v < sds.NumVertices(); v++ {
		car := sds.Carrier(Vertex(v))
		if len(car) == 1 {
			corners++
			if s.Color(car[0]) != sds.Color(Vertex(v)) {
				t.Errorf("corner vertex %d carrier color mismatch", v)
			}
		}
	}
	if corners != 3 {
		t.Errorf("SDS(s²) has %d corner vertices, want 3", corners)
	}
}

func TestSDSIteratedCarrierComposition(t *testing.T) {
	s := Simplex(2)
	sds2 := SDSPow(s, 2)
	if sds2.Base() != s {
		t.Fatal("SDS²(s²) base should be the original simplex")
	}
	// Every carrier must be a simplex of the base.
	for v := 0; v < sds2.NumVertices(); v++ {
		car := sds2.Carrier(Vertex(v))
		if len(car) == 0 || len(car) > 3 {
			t.Fatalf("vertex %d has carrier of size %d", v, len(car))
		}
		if !s.HasSimplex(car) {
			t.Fatalf("carrier %v of vertex %d not a simplex of the base", car, v)
		}
	}
}

func TestSDSBoundaryFacesAreSDSOfFaces(t *testing.T) {
	// The face of SDS(s²) carried by an edge {i,j} must equal SDS(edge).
	s := Simplex(2)
	sds := SDS(s)
	// Count vertices carried inside edge {0,1}: pairs (u,S) with S ⊆ {0,1}:
	// 2·1 + 2 = 4 vertices; facets: ordered partitions of 2 elements = 3.
	edge := []Vertex{0, 1}
	inEdge := 0
	for v := 0; v < sds.NumVertices(); v++ {
		if isSubset(sds.Carrier(Vertex(v)), edge) {
			inEdge++
		}
	}
	if inEdge != 4 {
		t.Errorf("%d vertices carried in edge, want 4", inEdge)
	}
	// Edge-carried 1-simplices: enumerate all simplices and count those of
	// dim 1 with carrier inside the edge; SDS of an edge has 3 facets.
	facetsInEdge := 0
	all := sds.AllSimplices()
	for _, e := range all[1] {
		if isSubset(sds.CarrierOfSimplex(e), edge) {
			facetsInEdge++
		}
	}
	if facetsInEdge != 3 {
		t.Errorf("%d edge-carried 1-simplices, want 3", facetsInEdge)
	}
}

func TestSDSOfComplexWithSharedFaceGlues(t *testing.T) {
	// Two triangles sharing an edge; SDS must glue along the shared edge's
	// subdivision: total facets 2·13 = 26, and the shared-edge subdivision
	// vertices appear once.
	c := NewComplex()
	a := c.MustAddVertex("a", 0)
	b := c.MustAddVertex("b", 1)
	d := c.MustAddVertex("d", 2)
	e := c.MustAddVertex("e", 0)
	c.MustAddSimplex(a, b, d)
	c.MustAddSimplex(b, d, e)
	c.Seal()

	sds := SDS(c)
	if got := len(sds.Facets()); got != 26 {
		t.Fatalf("SDS of two glued triangles has %d facets, want 26", got)
	}
	// Vertices: 12 per triangle, minus the 4 shared on edge {b,d}: 20.
	if got := sds.NumVertices(); got != 20 {
		t.Fatalf("SDS of two glued triangles has %d vertices, want 20", got)
	}
}

func TestSDSEulerCharacteristic(t *testing.T) {
	// Subdivision of a disk keeps χ = 1.
	for b := 1; b <= 2; b++ {
		c := SDSPow(Simplex(2), b)
		if chi := c.EulerCharacteristic(); chi != 1 {
			t.Errorf("χ(SDS^%d(s²)) = %d, want 1", b, chi)
		}
	}
	if chi := SDS(Simplex(3)).EulerCharacteristic(); chi != 1 {
		t.Errorf("χ(SDS(s³)) = %d, want 1", chi)
	}
}

func TestSDSFacetsAreOrderedPartitionsProperty(t *testing.T) {
	// Property: in every facet of SDS(sⁿ), the views S(u) recovered from
	// carriers form a chain under inclusion and satisfy self-inclusion
	// (the one-shot IS properties 1 and 2 of §3.5).
	sds := SDS(Simplex(2))
	for _, f := range sds.Facets() {
		views := make([][]Vertex, len(f))
		for i, v := range f {
			views[i] = sds.Carrier(v)
			// Self-inclusion: color of v appears in its view.
			found := false
			for _, w := range views[i] {
				if int(w) == sds.Color(v) { // base vertex ids equal colors for sⁿ
					found = true
				}
			}
			if !found {
				t.Fatalf("vertex %d: own color not in view %v", v, views[i])
			}
		}
		for i := range views {
			for j := range views {
				if !isSubset(views[i], views[j]) && !isSubset(views[j], views[i]) {
					t.Fatalf("views %v and %v incomparable in facet %v", views[i], views[j], f)
				}
			}
		}
	}
}

func TestBinomial(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	// Pascal's rule.
	err := quick.Check(func(nRaw, kRaw uint8) bool {
		n := int(nRaw%12) + 1
		k := int(kRaw % 12)
		return binomial(n, k) == binomial(n-1, k-1)+binomial(n-1, k)
	}, cfg)
	if err != nil {
		t.Error(err)
	}
	if binomial(5, 2) != 10 || binomial(6, 0) != 1 || binomial(4, 5) != 0 {
		t.Error("binomial spot checks failed")
	}
}

// complexesIdentical asserts the two complexes are bit-identical builds:
// same vertex table in the same order (key, color, carrier), same facet
// lists in the same order. Stronger than Equal, which ignores numbering.
func complexesIdentical(t *testing.T, want, got *Complex) {
	t.Helper()
	if want.NumVertices() != got.NumVertices() {
		t.Fatalf("vertex count: want %d, got %d", want.NumVertices(), got.NumVertices())
	}
	for i := 0; i < want.NumVertices(); i++ {
		v := Vertex(i)
		if want.Key(v) != got.Key(v) {
			t.Fatalf("vertex %d: key %q vs %q", i, want.Key(v), got.Key(v))
		}
		if want.Color(v) != got.Color(v) {
			t.Fatalf("vertex %d: color %d vs %d", i, want.Color(v), got.Color(v))
		}
		wc, gc := want.Carrier(v), got.Carrier(v)
		if fmt.Sprint(wc) != fmt.Sprint(gc) {
			t.Fatalf("vertex %d: carrier %v vs %v", i, wc, gc)
		}
	}
	wf, gf := want.Facets(), got.Facets()
	if len(wf) != len(gf) {
		t.Fatalf("facet count: want %d, got %d", len(wf), len(gf))
	}
	for i := range wf {
		if fmt.Sprint(wf[i]) != fmt.Sprint(gf[i]) {
			t.Fatalf("facet %d: %v vs %v", i, wf[i], gf[i])
		}
	}
}

func TestCountOrderedPartitionsOverflow(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("overflow boundary pinned for 64-bit int")
	}
	// a(18) is the last Fubini number that fits in int64.
	got, err := CountOrderedPartitionsChecked(18)
	if err != nil {
		t.Fatalf("CountOrderedPartitionsChecked(18): %v", err)
	}
	if want := int(3385534663256845323); got != want {
		t.Fatalf("a(18) = %d, want %d", got, want)
	}
	// a(19) ≈ 9.28e19 is the first overflowing n: explicit error, not a wrap.
	if _, err := CountOrderedPartitionsChecked(19); err == nil {
		t.Fatal("CountOrderedPartitionsChecked(19) should overflow")
	} else if !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("overflow error should say so: %v", err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("CountOrderedPartitions(19) should panic on overflow")
		}
		if !strings.Contains(fmt.Sprint(r), "overflow") {
			t.Fatalf("panic message should mention overflow: %v", r)
		}
	}()
	CountOrderedPartitions(19)
}

func TestBinomialCheckedOverflow(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("overflow boundary pinned for 64-bit int")
	}
	if v, err := binomialChecked(60, 30); err != nil || v != 118264581564861424 {
		t.Fatalf("C(60,30) = %d, %v; want 118264581564861424", v, err)
	}
	if _, err := binomialChecked(66, 33); err == nil {
		t.Fatal("C(66,33) should overflow int64")
	}
}

func TestCanonicalStringDistinguishes(t *testing.T) {
	a := Simplex(2)
	b := Simplex(2)
	if a.CanonicalString() != b.CanonicalString() {
		t.Fatal("equal complexes must have equal canonical strings")
	}
	if a.CanonicalString() == Simplex(1).CanonicalString() {
		t.Fatal("different complexes must differ")
	}
	if SDS(a).CanonicalString() == SDSPow(a, 2).CanonicalString() {
		t.Fatal("different subdivision levels must differ")
	}
}

func BenchmarkSDSPowSequential(b *testing.B) {
	base := Simplex(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SDSPow(base, 3)
	}
}

// BenchmarkSDSPow33Sequential builds SDS³(s³), the 421,875-facet level of
// the golden table: the largest subdivision the service builds.
func BenchmarkSDSPow33Sequential(b *testing.B) {
	base := Simplex(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SDSPow(base, 3)
	}
}

package topology

import (
	"testing"
)

func TestSimplexBasics(t *testing.T) {
	for n := 0; n <= 4; n++ {
		s := Simplex(n)
		if got := s.NumVertices(); got != n+1 {
			t.Errorf("Simplex(%d): %d vertices, want %d", n, got, n+1)
		}
		if got := s.Dimension(); got != n {
			t.Errorf("Simplex(%d): dimension %d, want %d", n, got, n)
		}
		if !s.IsPure() {
			t.Errorf("Simplex(%d): not pure", n)
		}
		if !s.IsChromatic() {
			t.Errorf("Simplex(%d): not chromatic", n)
		}
		if got := len(s.Facets()); got != 1 {
			t.Errorf("Simplex(%d): %d facets, want 1", n, got)
		}
	}
}

func TestSimplexFVector(t *testing.T) {
	// f_d of sⁿ is C(n+1, d+1).
	s := Simplex(3)
	want := []int{4, 6, 4, 1}
	got := s.FVector()
	if len(got) != len(want) {
		t.Fatalf("f-vector %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("f-vector %v, want %v", got, want)
		}
	}
	if chi := s.EulerCharacteristic(); chi != 1 {
		t.Errorf("Euler characteristic %d, want 1", chi)
	}
}

func TestSealAbsorbsFaces(t *testing.T) {
	c := NewComplex()
	a := c.MustAddVertex("a", 0)
	b := c.MustAddVertex("b", 1)
	d := c.MustAddVertex("d", 2)
	c.MustAddSimplex(a, b)    // face of the triangle, should be absorbed
	c.MustAddSimplex(a, b, d) // facet
	c.MustAddSimplex(a, b, d) // duplicate
	c.Seal()
	if got := len(c.Facets()); got != 1 {
		t.Fatalf("got %d facets, want 1: %v", got, c.Facets())
	}
}

func TestHasSimplex(t *testing.T) {
	c := NewComplex()
	a := c.MustAddVertex("a", 0)
	b := c.MustAddVertex("b", 1)
	d := c.MustAddVertex("d", 2)
	e := c.MustAddVertex("e", 0)
	c.MustAddSimplex(a, b, d)
	c.MustAddSimplex(b, d, e)
	c.Seal()

	cases := []struct {
		s    []Vertex
		want bool
	}{
		{[]Vertex{a}, true},
		{[]Vertex{a, b}, true},
		{[]Vertex{b, a}, true}, // order-insensitive
		{[]Vertex{a, b, d}, true},
		{[]Vertex{b, d, e}, true},
		{[]Vertex{a, e}, false},
		{[]Vertex{a, b, d, e}, false},
		{[]Vertex{a, a}, false}, // duplicates are not a simplex
		{nil, false},
	}
	for _, tc := range cases {
		if got := c.HasSimplex(tc.s); got != tc.want {
			t.Errorf("HasSimplex(%v) = %v, want %v", tc.s, got, tc.want)
		}
	}
}

func TestAddVertexIdempotentAndColorChecked(t *testing.T) {
	c := NewComplex()
	v1 := c.MustAddVertex("x", 3)
	v2, err := c.AddVertex("x", 3)
	if err != nil {
		t.Fatalf("re-add same color: %v", err)
	}
	if v1 != v2 {
		t.Fatalf("re-add returned different vertex %d != %d", v1, v2)
	}
	if _, err := c.AddVertex("x", 4); err == nil {
		t.Fatal("re-add with different color should fail")
	}
}

func TestAddSimplexErrors(t *testing.T) {
	c := NewComplex()
	a := c.MustAddVertex("a", 0)
	if err := c.AddSimplex(a, a); err == nil {
		t.Error("duplicate vertex in simplex should fail")
	}
	if err := c.AddSimplex(Vertex(99)); err == nil {
		t.Error("unknown vertex should fail")
	}
	c.MustAddSimplex(a)
	c.Seal()
	if err := c.AddSimplex(a); err == nil {
		t.Error("AddSimplex after Seal should fail")
	}
	if _, err := c.AddVertex("b", 0); err == nil {
		t.Error("AddVertex after Seal should fail")
	}
}

func TestIsChromaticDetectsRepeatedColor(t *testing.T) {
	c := NewComplex()
	a := c.MustAddVertex("a", 0)
	b := c.MustAddVertex("b", 0)
	c.MustAddSimplex(a, b)
	c.Seal()
	if c.IsChromatic() {
		t.Error("facet with repeated color reported chromatic")
	}

	d := NewComplex()
	x := d.MustAddVertex("x", Uncolored)
	d.MustAddSimplex(x)
	d.Seal()
	if d.IsChromatic() {
		t.Error("uncolored vertex reported chromatic")
	}
}

func TestLinkOfVertexInTriangleBoundary(t *testing.T) {
	// Boundary of a triangle: three edges forming a cycle. The link of a
	// vertex is the two opposite vertices, no edge between them.
	c := NewComplex()
	a := c.MustAddVertex("a", 0)
	b := c.MustAddVertex("b", 1)
	d := c.MustAddVertex("d", 2)
	c.MustAddSimplex(a, b)
	c.MustAddSimplex(b, d)
	c.MustAddSimplex(a, d)
	c.Seal()

	link := c.Link([]Vertex{a})
	if got := link.NumVertices(); got != 2 {
		t.Fatalf("link has %d vertices, want 2", got)
	}
	if got := link.Dimension(); got != 0 {
		t.Fatalf("link dimension %d, want 0", got)
	}
}

func TestLinkOfEdgeInTetrahedron(t *testing.T) {
	s := Simplex(3)
	f := s.Facets()[0]
	link := s.Link([]Vertex{f[0], f[1]})
	// Link of an edge in a solid tetrahedron is the opposite edge.
	if got := link.NumVertices(); got != 2 {
		t.Fatalf("link has %d vertices, want 2", got)
	}
	if got := link.Dimension(); got != 1 {
		t.Fatalf("link dimension %d, want 1", got)
	}
}

func TestEqual(t *testing.T) {
	build := func() *Complex {
		c := NewComplex()
		a := c.MustAddVertex("a", 0)
		b := c.MustAddVertex("b", 1)
		d := c.MustAddVertex("d", 2)
		c.MustAddSimplex(a, b, d)
		return c.Seal()
	}
	c1, c2 := build(), build()
	if !c1.Equal(c2) {
		t.Error("identically built complexes not Equal")
	}

	c3 := NewComplex()
	a := c3.MustAddVertex("a", 0)
	b := c3.MustAddVertex("b", 1)
	d := c3.MustAddVertex("d", 2)
	c3.MustAddSimplex(a, b)
	c3.MustAddSimplex(b, d)
	c3.MustAddSimplex(a, d)
	c3.Seal()
	if c1.Equal(c3) {
		t.Error("triangle equal to its boundary")
	}
}

func TestConnectedComponents(t *testing.T) {
	c := NewComplex()
	a := c.MustAddVertex("a", 0)
	b := c.MustAddVertex("b", 1)
	d := c.MustAddVertex("d", 0)
	e := c.MustAddVertex("e", 1)
	iso := c.MustAddVertex("iso", 2)
	c.MustAddSimplex(a, b)
	c.MustAddSimplex(d, e)
	c.MustAddSimplex(iso)
	c.Seal()

	comps := c.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("%d components, want 3", len(comps))
	}
	if c.IsConnected() {
		t.Fatal("disconnected complex reported connected")
	}
	if !Simplex(3).IsConnected() {
		t.Fatal("simplex reported disconnected")
	}
	if !SDS(Simplex(2)).IsConnected() {
		t.Fatal("SDS(s²) reported disconnected")
	}
}

func TestCarrierDefaults(t *testing.T) {
	s := Simplex(2)
	for v := 0; v < s.NumVertices(); v++ {
		car := s.Carrier(Vertex(v))
		if len(car) != 1 || car[0] != Vertex(v) {
			t.Errorf("base complex carrier of %d = %v, want itself", v, car)
		}
	}
	if s.Base() != nil {
		t.Error("base complex should have nil Base")
	}
}

func TestVerticesOfColorAndColors(t *testing.T) {
	s := Simplex(2)
	for c := 0; c <= 2; c++ {
		vs := s.VerticesOfColor(c)
		if len(vs) != 1 {
			t.Errorf("color %d: %d vertices, want 1", c, len(vs))
		}
	}
	cols := s.Colors()
	if len(cols) != 3 || cols[0] != 0 || cols[2] != 2 {
		t.Errorf("Colors() = %v, want [0 1 2]", cols)
	}
}

var (
	hashSink string
	fvecSink []int
)

// BenchmarkComplexInvariants times what a complex query computes on top of
// the subdivision: the canonical hash and the f-vector of SDS³(s²).
func BenchmarkComplexInvariants(b *testing.B) {
	c := SDSPow(Simplex(2), 3)
	c.CanonicalHash() // materialize keys outside the loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink = c.CanonicalHash()
		fvecSink = c.FVector()
	}
}

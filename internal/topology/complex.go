package topology

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Vertex is an index into a Complex's vertex table. Vertices are meaningful
// only relative to the complex that owns them.
type Vertex int

// Uncolored is the Color of vertices in non-chromatic complexes such as
// barycentric subdivisions.
const Uncolored = -1

// vertexAttr holds the per-vertex data of a complex. In arena-built
// complexes (subdivisions produced by SDS/Bsd) the key is materialized
// lazily from provenance; until then it is empty.
type vertexAttr struct {
	key     string   // canonical identity, unique within the complex
	color   int      // chromatic color (process id), or Uncolored
	carrier []Vertex // carrier face in the base complex; nil when base == nil
}

// Complex is an abstract simplicial complex: a vertex table plus a set of
// maximal simplices (facets). The simplices of the complex are all non-empty
// subsets of facets. A Complex may additionally be a subdivision of a base
// complex, in which case every vertex carries its carrier face in the base.
//
// Complexes come in two construction modes. Explicit complexes are built
// through AddVertex/AddSimplex and carry their string keys eagerly (byKey is
// maintained during construction). Arena complexes are built internally by
// the subdivision operators: their vertices are interned by integer identity
// (DESIGN.md §12), and string keys plus the byKey index are materialized on
// first use at the canonical-encoding / key-lookup boundary, never on the
// subdivision hot path.
type Complex struct {
	verts  []vertexAttr
	byKey  map[string]Vertex // nil for arena complexes until materialized
	facets [][]Vertex        // each sorted ascending; mutually non-contained
	base   *Complex          // non-nil iff this complex is a subdivision

	// incidence[v] lists indices into facets containing v; built by seal.
	incidence [][]int
	sealed    bool

	// prov is non-nil exactly for arena complexes; it records how each
	// vertex was derived so keys can be rebuilt on demand.
	prov    *provenance
	keyOnce sync.Once
	mapOnce sync.Once
}

// NewComplex returns an empty complex under construction. Add vertices and
// simplices, then call Seal before using query methods.
func NewComplex() *Complex {
	return &Complex{byKey: make(map[string]Vertex)}
}

// NewSubdivision returns an empty complex under construction that is
// declared to be a subdivision of base: every vertex must be given a carrier
// face of base via SetCarrier before Seal. Used to hand-build non-standard
// chromatic subdivisions (the paper's "any chromatic subdivision A(sⁿ)" in
// Theorem 5.1).
func NewSubdivision(base *Complex) *Complex {
	c := NewComplex()
	c.base = base
	return c
}

// AddVertex registers a vertex with the given canonical key and color,
// returning its index. Re-adding an existing key returns the existing vertex
// and requires the color to match.
func (c *Complex) AddVertex(key string, color int) (Vertex, error) {
	if c.sealed {
		return 0, fmt.Errorf("topology: AddVertex on sealed complex")
	}
	if v, ok := c.byKey[key]; ok {
		if c.verts[v].color != color {
			return 0, fmt.Errorf("topology: vertex %q re-added with color %d (was %d)", key, color, c.verts[v].color)
		}
		return v, nil
	}
	v := Vertex(len(c.verts))
	c.verts = append(c.verts, vertexAttr{key: key, color: color})
	c.byKey[key] = v
	return v, nil
}

// MustAddVertex is AddVertex for construction code with statically valid
// inputs; it panics on error.
func (c *Complex) MustAddVertex(key string, color int) Vertex {
	v, err := c.AddVertex(key, color)
	if err != nil {
		panic(err)
	}
	return v
}

// SetCarrier records the carrier face (vertices of the base complex) of v.
// The slice is copied and sorted.
func (c *Complex) SetCarrier(v Vertex, carrier []Vertex) {
	cp := append([]Vertex(nil), carrier...)
	slices.Sort(cp)
	c.verts[v].carrier = cp
}

// AddSimplex registers a candidate maximal simplex. Duplicate vertices are an
// error; faces of previously added simplices are absorbed at Seal time.
func (c *Complex) AddSimplex(vs ...Vertex) error {
	if c.sealed {
		return fmt.Errorf("topology: AddSimplex on sealed complex")
	}
	s := append([]Vertex(nil), vs...)
	slices.Sort(s)
	for i, v := range s {
		if int(v) < 0 || int(v) >= len(c.verts) {
			return fmt.Errorf("topology: simplex references unknown vertex %d", v)
		}
		if i > 0 && s[i-1] == v {
			return fmt.Errorf("topology: simplex has duplicate vertex %d", v)
		}
	}
	c.facets = append(c.facets, s)
	return nil
}

// MustAddSimplex is AddSimplex for construction code with statically valid
// inputs; it panics on error.
func (c *Complex) MustAddSimplex(vs ...Vertex) {
	if err := c.AddSimplex(vs...); err != nil {
		panic(err)
	}
}

// Seal finalizes the complex: it deduplicates facets, removes facets that are
// faces of other facets, and builds incidence indexes. Query methods may only
// be used after Seal.
func (c *Complex) Seal() *Complex {
	if c.sealed {
		return c
	}
	// Sort by descending size, then by the decimal-string order of the
	// vertex lists (sortFacetsCanonical). Duplicates land adjacent, so
	// deduplication is a linear scan, and a containment check against
	// already-retained facets absorbs proper faces.
	sortFacetsCanonical(c.facets, len(c.verts))
	inc := make([][]int, len(c.verts))
	kept := c.facets[:0]
	for i, f := range c.facets {
		if i > 0 && slices.Equal(c.facets[i-1], f) {
			continue
		}
		if len(kept) > 0 && containedInAny(f, inc, kept) {
			continue
		}
		idx := len(kept)
		kept = append(kept, f)
		for _, v := range f {
			inc[v] = append(inc[v], idx)
		}
	}
	c.facets = kept
	c.incidence = inc
	c.sealed = true
	return c
}

// sealTrusted finalizes a builder-produced complex whose facets are known to
// be pairwise distinct and maximal (SDS and Bsd guarantee both: a facet's
// ordered partition / permutation chain is recoverable from its vertex set,
// and a subdivision facet of base facet t always contains a vertex whose
// face is all of t, so it cannot sit inside the subdivision of another
// facet). Skips deduplication and containment, sorts in the same order as
// Seal, and builds the incidence index with a single pre-counted backing
// array.
func (c *Complex) sealTrusted() *Complex {
	if c.sealed {
		return c
	}
	sortFacetsCanonical(c.facets, len(c.verts))
	counts := make([]int32, len(c.verts))
	total := 0
	for _, f := range c.facets {
		total += len(f)
		for _, v := range f {
			counts[v]++
		}
	}
	backing := make([]int, total)
	inc := make([][]int, len(c.verts))
	off := 0
	for v := range inc {
		n := int(counts[v])
		inc[v] = backing[off : off : off+n]
		off += n
	}
	for i, f := range c.facets {
		for _, v := range f {
			inc[v] = append(inc[v], i)
		}
	}
	c.facets = c.facets[:len(c.facets):len(c.facets)]
	c.incidence = inc
	c.sealed = true
	return c
}

// containedInAny reports whether sorted simplex f is a subset of one of the
// facets, using the incidence lists built so far.
func containedInAny(f []Vertex, inc [][]int, facets [][]Vertex) bool {
	if len(f) == 0 {
		return true
	}
	for _, fi := range inc[f[0]] {
		if isSubset(f, facets[fi]) {
			return true
		}
	}
	return false
}

// isSubset reports a ⊆ b for sorted slices.
func isSubset(a, b []Vertex) bool {
	i := 0
	for _, x := range b {
		if i == len(a) {
			return true
		}
		if a[i] == x {
			i++
		}
	}
	return i == len(a)
}

// NumVertices returns the number of vertices.
func (c *Complex) NumVertices() int { return len(c.verts) }

// Key returns the canonical key of v. For arena complexes the key table is
// materialized (once, concurrency-safe) on first use.
func (c *Complex) Key(v Vertex) string {
	c.ensureKeys()
	return c.verts[v].key
}

// Color returns the color of v (Uncolored for non-chromatic complexes).
func (c *Complex) Color(v Vertex) int { return c.verts[v].color }

// VertexByKey returns the vertex with the given key.
func (c *Complex) VertexByKey(key string) (Vertex, bool) {
	c.ensureByKey()
	v, ok := c.byKey[key]
	return v, ok
}

// Base returns the base complex when this complex is a subdivision, else nil.
func (c *Complex) Base() *Complex { return c.base }

// Carrier returns the carrier face of v in the base complex. For a complex
// that is not a subdivision it returns {v} (every complex trivially carries
// itself).
func (c *Complex) Carrier(v Vertex) []Vertex {
	if c.base == nil {
		return []Vertex{v}
	}
	return c.verts[v].carrier
}

// CarrierOfSimplex returns the carrier of a simplex: the union of the
// carriers of its vertices, which for a subdivision is the smallest base face
// containing the simplex.
func (c *Complex) CarrierOfSimplex(s []Vertex) []Vertex {
	var scratch []Vertex
	for _, v := range s {
		scratch = append(scratch, c.Carrier(v)...)
	}
	slices.Sort(scratch)
	return slices.Compact(scratch)
}

// Facets returns the maximal simplices. The returned slices are shared; do
// not modify.
func (c *Complex) Facets() [][]Vertex {
	c.mustBeSealed("Facets")
	return c.facets
}

// Dimension returns the dimension of the complex (max facet size − 1), or −1
// for the empty complex.
func (c *Complex) Dimension() int {
	c.mustBeSealed("Dimension")
	d := -1
	for _, f := range c.facets {
		if len(f)-1 > d {
			d = len(f) - 1
		}
	}
	return d
}

// IsPure reports whether every facet has the full dimension of the complex.
func (c *Complex) IsPure() bool {
	c.mustBeSealed("IsPure")
	d := c.Dimension()
	for _, f := range c.facets {
		if len(f)-1 != d {
			return false
		}
	}
	return true
}

// IsChromatic reports whether every vertex is colored and no facet repeats a
// color (i.e. the coloring is a dimension-preserving map to a simplex).
func (c *Complex) IsChromatic() bool {
	c.mustBeSealed("IsChromatic")
	// Read colors by index, not by struct copy: a whole-vertexAttr copy
	// would read the key field, which arena complexes materialize lazily
	// under keyOnce — racing with a concurrent ensureKeys on a shared level.
	for i := range c.verts {
		if c.verts[i].color == Uncolored {
			return false
		}
	}
	var cols []int
	for _, f := range c.facets {
		cols = cols[:0]
		for _, v := range f {
			cols = append(cols, c.verts[v].color)
		}
		slices.Sort(cols)
		if len(slices.Compact(cols)) != len(f) {
			return false
		}
	}
	return true
}

// HasSimplex reports whether the given vertex set is a simplex of the
// complex (a subset of some facet). The input need not be sorted. Inputs
// of up to 8 vertices are sorted in a stack buffer, so the call does not
// allocate: the solvers ask it once per edge class and per search check.
func (c *Complex) HasSimplex(vs []Vertex) bool {
	c.mustBeSealed("HasSimplex")
	if len(vs) == 0 {
		return false
	}
	var buf [8]Vertex
	s := append(buf[:0], vs...)
	slices.Sort(s)
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return false
		}
	}
	return containedInAny(s, c.incidence, c.facets)
}

// AllSimplices returns every simplex of the complex grouped by dimension:
// result[d] lists the d-dimensional simplices, each sorted, in a
// deterministic order (lexicographic on the vertex lists).
func (c *Complex) AllSimplices() [][][]Vertex {
	c.mustBeSealed("AllSimplices")
	dim := c.Dimension()
	if dim < 0 {
		return nil
	}
	byDim := make([][][]Vertex, dim+1)
	c.forEachSimplex(func(s []Vertex) {
		byDim[len(s)-1] = append(byDim[len(s)-1], slices.Clone(s))
	})
	for _, ss := range byDim {
		slices.SortFunc(ss, slices.Compare[[]Vertex])
	}
	return byDim
}

// FVector returns the number of simplices in each dimension: f[d] is the
// count of d-simplices. It counts without copying or sorting a simplex.
func (c *Complex) FVector() []int {
	c.mustBeSealed("FVector")
	f := make([]int, c.Dimension()+1)
	c.forEachSimplex(func(s []Vertex) { f[len(s)-1]++ })
	return f
}

// forEachSimplex calls fn once per distinct simplex, in first-occurrence
// order over the facets. Faces shared by several facets are deduplicated
// by the packed binary encoding of the vertex list: the map lookup on
// string(buf) does not allocate, and only distinct simplices pay for an
// inserted key. fn must not retain its argument.
func (c *Complex) forEachSimplex(fn func([]Vertex)) {
	seen := make(map[string]struct{})
	buf := make([]byte, 0, 64)
	for _, f := range c.facets {
		forEachSubset(f, func(sub []Vertex) {
			buf = encodeVerts(buf[:0], sub)
			if _, ok := seen[string(buf)]; ok {
				return
			}
			seen[string(buf)] = struct{}{}
			fn(sub)
		})
	}
}

// EulerCharacteristic returns Σ (−1)^d f_d.
func (c *Complex) EulerCharacteristic() int {
	return EulerOfFVector(c.FVector())
}

// EulerOfFVector returns Σ (−1)^d f[d], the Euler characteristic of a
// complex with f-vector f; callers that already hold the f-vector use it
// instead of EulerCharacteristic, which enumerates every simplex again.
func EulerOfFVector(f []int) int {
	chi := 0
	for d, n := range f {
		if d%2 == 0 {
			chi += n
		} else {
			chi -= n
		}
	}
	return chi
}

// VerticesOfColor returns all vertices with the given color, ascending.
func (c *Complex) VerticesOfColor(color int) []Vertex {
	var out []Vertex
	for i := range c.verts {
		// Indexed field read, not a struct copy: see IsChromatic.
		if c.verts[i].color == color {
			out = append(out, Vertex(i))
		}
	}
	return out
}

// Colors returns the sorted set of colors used in the complex.
func (c *Complex) Colors() []int {
	out := make([]int, len(c.verts))
	for i := range c.verts {
		// Indexed field read, not a struct copy: see IsChromatic.
		out[i] = c.verts[i].color
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Link returns the link of simplex s as a new complex: the simplices disjoint
// from s whose union with s is a simplex. Vertex keys and colors are
// inherited; the link is not a subdivision (no carriers).
func (c *Complex) Link(s []Vertex) *Complex {
	c.mustBeSealed("Link")
	c.ensureKeys()
	ss := sortedCopy(s)
	link := NewComplex()
	for _, f := range c.facets {
		if !isSubset(ss, f) {
			continue
		}
		var rest []Vertex
		for _, v := range f {
			if !slices.Contains(ss, v) {
				rest = append(rest, v)
			}
		}
		if len(rest) == 0 {
			continue
		}
		mapped := make([]Vertex, len(rest))
		for i, v := range rest {
			mapped[i] = link.MustAddVertex(c.verts[v].key, c.verts[v].color)
		}
		link.MustAddSimplex(mapped...)
	}
	return link.Seal()
}

// ConnectedComponents returns the vertex sets of the connected components
// of the complex's 1-skeleton (isolated vertices form their own
// components), each sorted, ordered by smallest vertex.
func (c *Complex) ConnectedComponents() [][]Vertex {
	c.mustBeSealed("ConnectedComponents")
	parent := make([]int, len(c.verts))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, f := range c.facets {
		for i := 1; i < len(f); i++ {
			union(int(f[0]), int(f[i]))
		}
	}
	groups := make(map[int][]Vertex)
	for v := range c.verts {
		r := find(v)
		groups[r] = append(groups[r], Vertex(v))
	}
	out := make([][]Vertex, 0, len(groups))
	for _, g := range groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// IsConnected reports whether the complex has exactly one connected
// component.
func (c *Complex) IsConnected() bool {
	return len(c.ConnectedComponents()) == 1
}

// Equal reports whether two sealed complexes have identical vertex keys,
// colors, and facet sets (same complex, not merely isomorphic).
func (c *Complex) Equal(o *Complex) bool {
	c.mustBeSealed("Equal")
	o.mustBeSealed("Equal")
	if len(c.verts) != len(o.verts) || len(c.facets) != len(o.facets) {
		return false
	}
	c.ensureKeys()
	o.ensureKeys()
	corder, crank, _ := c.keyOrder()
	oorder, orank, _ := o.keyOrder()
	for r, v := range corder {
		a, b := &c.verts[v], &o.verts[oorder[r]]
		if a.key != b.key || a.color != b.color {
			return false
		}
	}
	// Equal key sets: a key rank names the same vertex in both complexes,
	// so equal facet sets have equal sorted rank tuples.
	ct, coff := c.facetTuples(crank, false, corder)
	ot, ooff := o.facetTuples(orank, false, oorder)
	return slices.Equal(ct, ot) && slices.Equal(coff, ooff)
}

func (c *Complex) mustBeSealed(op string) {
	if !c.sealed {
		panic("topology: " + op + " called before Seal")
	}
}

func sortedCopy(s []Vertex) []Vertex {
	cp := append([]Vertex(nil), s...)
	slices.Sort(cp)
	return cp
}

// forEachSubset calls fn on every non-empty subset of the sorted slice f,
// reusing a scratch buffer (fn must not retain its argument).
func forEachSubset(f []Vertex, fn func([]Vertex)) {
	n := len(f)
	buf := make([]Vertex, 0, n)
	for mask := 1; mask < 1<<n; mask++ {
		buf = buf[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				buf = append(buf, f[i])
			}
		}
		fn(buf)
	}
}

// Simplex returns the standard chromatic n-simplex sⁿ: vertices P0…Pn with
// color i and key "Pi", one facet containing all of them.
func Simplex(n int) *Complex {
	c := NewComplex()
	vs := make([]Vertex, n+1)
	for i := 0; i <= n; i++ {
		vs[i] = c.MustAddVertex(fmt.Sprintf("P%d", i), i)
	}
	c.MustAddSimplex(vs...)
	return c.Seal()
}

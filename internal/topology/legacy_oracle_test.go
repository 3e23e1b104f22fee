package topology

// This file keeps the pre-arena, string-keyed subdivision pipeline in-tree
// as the oracle for the differential harness (differential_test.go). It is
// a faithful copy of the historical SDSStructured/Bsd construction: every
// vertex is interned eagerly through MustAddVertex on its canonical string
// key, carriers through SetCarrier, and facets through the untrusted Seal.
// Because the explicit construction path of Complex is byte-for-byte the
// seed's (AddVertex/SetCarrier/AddSimplex/Seal semantics are unchanged;
// Seal's rank-based facet order is pinned against the seed's decimal-string
// comparator in order_oracle_test.go), these functions reproduce the seed's
// output exactly — vertex order, facet order, canonical encoding — and the
// harness pins the arena path against them.

import (
	"sort"
	"strings"
)

// legacySDSStructured is the seed's string-keyed SDSStructured.
func legacySDSStructured(c *Complex) *SDSLevel {
	c.mustBeSealed("SDS")
	out := NewComplex()
	base := c.base
	if base == nil {
		base = c
	}
	out.base = base
	lvl := &SDSLevel{Complex: out, Prev: c}

	addVertex := func(u Vertex, s []Vertex) Vertex {
		key := sdsVertexKey(c, u, s)
		v := out.MustAddVertex(key, c.Color(u))
		if int(v) == len(lvl.U) {
			lvl.U = append(lvl.U, u)
			lvl.S = append(lvl.S, append([]Vertex(nil), s...))
			carrierSet := make(map[Vertex]struct{})
			for _, w := range s {
				for _, b := range c.Carrier(w) {
					carrierSet[b] = struct{}{}
				}
			}
			carrier := make([]Vertex, 0, len(carrierSet))
			for b := range carrierSet {
				carrier = append(carrier, b)
			}
			out.SetCarrier(v, carrier)
		}
		return v
	}

	for _, t := range c.Facets() {
		ForEachOrderedPartition(len(t), func(blocks [][]int) {
			facet := make([]Vertex, 0, len(t))
			var prefix []Vertex
			for _, block := range blocks {
				for _, bi := range block {
					prefix = append(prefix, t[bi])
				}
				s := sortedCopy(prefix)
				for _, bi := range block {
					facet = append(facet, addVertex(t[bi], s))
				}
			}
			out.MustAddSimplex(facet...)
		})
	}
	out.Seal()
	return lvl
}

// legacySDS is the seed's SDS.
func legacySDS(c *Complex) *Complex { return legacySDSStructured(c).Complex }

// legacySDSPow is the seed's SDSPow.
func legacySDSPow(c *Complex, b int) *Complex {
	for i := 0; i < b; i++ {
		c = legacySDS(c)
	}
	return c
}

// legacyBsd is the seed's string-keyed Bsd.
func legacyBsd(c *Complex) *Complex {
	c.mustBeSealed("Bsd")
	out := NewComplex()
	base := c.base
	if base == nil {
		base = c
	}
	out.base = base

	addBarycenter := func(face []Vertex) Vertex {
		v := out.MustAddVertex(bsdVertexKey(c, face), Uncolored)
		out.SetCarrier(v, c.CarrierOfSimplex(face))
		return v
	}

	for _, f := range c.Facets() {
		perm := make([]int, len(f))
		for i := range perm {
			perm[i] = i
		}
		forEachPermutation(perm, func(p []int) {
			chain := make([]Vertex, 0, len(f))
			prefix := make([]Vertex, 0, len(f))
			for _, idx := range p {
				prefix = append(prefix, f[idx])
				chain = append(chain, addBarycenter(sortedCopy(prefix)))
			}
			out.MustAddSimplex(chain...)
		})
	}
	return out.Seal()
}

// legacySDSToBsd is the seed's carrier-based SDSToBsd, used to
// differentially test the structural provenance fast path.
func legacySDSToBsd(c, sds, bsd *Complex) (*SimplicialMap, error) {
	m := NewSimplicialMap(sds, bsd)
	for v := 0; v < sds.NumVertices(); v++ {
		s := sds.Carrier(Vertex(v))
		bkey := bsdVertexKey(c, s)
		w, ok := bsd.VertexByKey(bkey)
		if !ok {
			return nil, errMissingBarycenter(bkey)
		}
		m.Image[v] = w
	}
	return m, nil
}

type errMissingBarycenter string

func (e errMissingBarycenter) Error() string { return "missing barycenter " + string(e) }

// legacyCanonicalFacetOrder reproduces the seed's facet ordering inside
// CanonicalString — materialized joined key strings under sort.Strings —
// so the rank-based order and its byte-walk fallback can be differentially
// pinned against it.
func legacyCanonicalFacetOrder(c *Complex) []string {
	c.ensureKeys()
	fk := make([]string, len(c.facets))
	for i, f := range c.facets {
		fk[i] = legacyFacetKeyString(c, f)
	}
	sort.Strings(fk)
	return fk
}

// legacyFacetKeyString encodes a facet by its sorted vertex keys joined
// with 0x1f; the caller must have materialized keys.
func legacyFacetKeyString(c *Complex, f []Vertex) string {
	keys := make([]string, len(f))
	for i, v := range f {
		keys[i] = c.verts[v].key
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x1f")
}

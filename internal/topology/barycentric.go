package topology

import (
	"slices"
	"sort"
	"strings"
)

// Bsd returns the first barycentric subdivision of the sealed complex c.
//
// The vertices of Bsd(c) are the barycenters of the simplices of c; the
// facets are the maximal chains σ1 ⊂ σ2 ⊂ … ⊂ σ(d+1) of faces of a facet
// (equivalently, permutations of each facet). Bsd(c) is not chromatic — its
// vertices are Uncolored — but it is a subdivision: each barycenter carries
// the carrier of its simplex, composed through to the original base.
//
// Like SDS, the construction runs on the arena representation: barycenters
// are interned by face content (a Bsd vertex IS a face of c), and the
// "B{…}" string keys materialize lazily on first use.
func Bsd(c *Complex) *Complex {
	c.mustBeSealed("Bsd")
	out := newArenaComplex(c, provBsd)
	p := out.prov
	faceIDs := make(map[string]int32)
	var encBuf []byte
	var chainBuf []Vertex
	var faceBuf []Vertex
	var permBuf []int

	// internFace registers (once) the face of c with the given position
	// mask over the sorted facet f, returning its vertex in out. Vertex
	// order is the first-occurrence order of barycenters, exactly as the
	// string-keyed construction encountered them.
	internFace := func(f []Vertex, mask uint32) Vertex {
		faceBuf = faceBuf[:0]
		for i := 0; i < len(f); i++ {
			if mask&(1<<uint(i)) != 0 {
				faceBuf = append(faceBuf, f[i])
			}
		}
		encBuf = encodeVerts(encBuf[:0], faceBuf)
		if gid, ok := faceIDs[string(encBuf)]; ok {
			return Vertex(gid)
		}
		gid := int32(p.numFaces())
		faceIDs[string(encBuf)] = gid
		p.faceData = append(p.faceData, faceBuf...)
		p.faceOff = append(p.faceOff, int32(len(p.faceData)))
		p.face = append(p.face, gid)
		out.verts = append(out.verts, vertexAttr{color: Uncolored})
		return Vertex(gid)
	}

	for _, f := range c.Facets() {
		if cap(permBuf) < len(f) {
			permBuf = make([]int, len(f))
		}
		perm := permBuf[:len(f)]
		for i := range perm {
			perm[i] = i
		}
		forEachPermutation(perm, func(pm []int) {
			chainBuf = chainBuf[:0]
			var mask uint32
			for _, idx := range pm {
				mask |= 1 << uint(idx)
				chainBuf = append(chainBuf, internFace(f, mask))
			}
			facet := slices.Clone(chainBuf)
			slices.Sort(facet)
			out.facets = append(out.facets, facet)
		})
	}

	// Carriers: the carrier of a barycenter is the carrier of its face —
	// the face itself when c is the base (alias into the final face arena),
	// the union of the face's carriers otherwise.
	var scratch []Vertex
	for v := range out.verts {
		face := p.faceOf(p.face[v])
		if c.base == nil {
			out.verts[v].carrier = face
		} else {
			out.verts[v].carrier, scratch = carrierUnion(c, face, scratch)
		}
	}
	// Chains are pairwise distinct (the permutation is recoverable from the
	// chain) and maximal (a chain of facet t contains the barycenter of all
	// of t, which belongs to no other facet's subdivision), so the trusted
	// seal applies.
	return out.sealTrusted()
}

// BsdPow returns Bsd^k(c); BsdPow(c, 0) is c itself.
func BsdPow(c *Complex, k int) *Complex {
	for i := 0; i < k; i++ {
		c = Bsd(c)
	}
	return c
}

// bsdVertexKey canonically names the barycenter of a face by the keys of its
// vertices in c.
func bsdVertexKey(c *Complex, face []Vertex) string {
	keys := make([]string, len(face))
	for i, v := range face {
		keys[i] = c.Key(v)
	}
	sort.Strings(keys)
	return "B{" + strings.Join(keys, " ") + "}"
}

// forEachPermutation calls fn with every permutation of p (Heap's
// algorithm). The slice is reused; fn must not retain it.
func forEachPermutation(p []int, fn func([]int)) {
	n := len(p)
	ctr := make([]int, n)
	fn(p)
	for i := 0; i < n; {
		if ctr[i] < i {
			if i%2 == 0 {
				p[0], p[i] = p[i], p[0]
			} else {
				p[ctr[i]], p[i] = p[i], p[ctr[i]]
			}
			fn(p)
			ctr[i]++
			i = 0
		} else {
			ctr[i] = 0
			i++
		}
	}
}

package topology

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// This file holds the index-based arena representation behind the
// subdivision operators (DESIGN.md §12). Subdivision vertices are interned
// by integer identity — an SDS vertex is the pair (u, S) of a source vertex
// and a source face, a Bsd vertex is a source face — and the canonical
// string keys historically used for interning are derived from that
// provenance only on demand (Key, VertexByKey, CanonicalString, Equal).
// The intern tables are append-only: a vertex or face, once assigned an
// index, keeps it for the lifetime of the complex.

// Provenance kinds.
const (
	provSDS byte = 'S'
	provBsd byte = 'B'
)

// provenance records how an arena-built complex's vertices were derived
// from its source complex, which is all that is needed to rebuild the
// canonical string keys lazily.
type provenance struct {
	kind byte     // provSDS or provBsd
	src  *Complex // the complex that was subdivided

	// faceData packs the sorted source-vertex lists of all distinct faces
	// referenced by the construction; face i is
	// faceData[faceOff[i]:faceOff[i+1]]. Append-only intern table.
	faceData []Vertex
	faceOff  []int32

	// u[v] (provSDS only) and face[v] identify vertex v: for SDS the pair
	// (u, face) with u a vertex of src, for Bsd the face alone.
	u    []Vertex
	face []int32
}

func (p *provenance) faceOf(i int32) []Vertex {
	return p.faceData[p.faceOff[i]:p.faceOff[i+1]]
}

func (p *provenance) numFaces() int { return len(p.faceOff) - 1 }

// newArenaComplex returns an empty arena complex whose vertices will be
// appended directly by a subdivision builder, with provenance against src.
func newArenaComplex(src *Complex, kind byte) *Complex {
	base := src.base
	if base == nil {
		base = src
	}
	return &Complex{
		base: base,
		prov: &provenance{kind: kind, src: src, faceOff: []int32{0}},
	}
}

// ensureKeys materializes the string key of every vertex of an arena
// complex. Explicit complexes carry keys from construction; for arena
// complexes the materialization happens at most once, is safe under
// concurrent readers, and cascades through the provenance chain (an SDS
// tower materializes level by level down to the explicit root).
func (c *Complex) ensureKeys() {
	if c.prov == nil {
		return
	}
	c.keyOnce.Do(c.materializeKeys)
}

func (c *Complex) materializeKeys() {
	p := c.prov
	p.src.ensureKeys()
	for v := range c.verts {
		face := p.faceOf(p.face[v])
		switch p.kind {
		case provSDS:
			c.verts[v].key = sdsVertexKey(p.src, p.u[v], face)
		case provBsd:
			c.verts[v].key = bsdVertexKey(p.src, face)
		}
	}
}

// ensureByKey materializes the key → vertex index of an arena complex.
func (c *Complex) ensureByKey() {
	if c.prov == nil {
		return
	}
	c.ensureKeys()
	c.mapOnce.Do(func() {
		m := make(map[string]Vertex, len(c.verts))
		for i := range c.verts {
			m[c.verts[i].key] = Vertex(i)
		}
		c.byKey = m
	})
}

// encodeVerts appends the packed 4-byte little-endian encoding of each
// vertex to buf — the allocation-free map key for interning vertex lists.
func encodeVerts(buf []byte, vs []Vertex) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// decimalRanks returns rank[v], the position of v's decimal rendering among
// the renderings of 0…n−1 in byte order ("0" < "1" < "10" < "100" < "11" <
// … < "2"), by walking the decimal digit trie in preorder: O(n), no strings.
func decimalRanks(n int) []int32 {
	rank := make([]int32, n)
	cur := 1 // rank[0] = 0: "0" sorts first and prefixes nothing
	for r := int32(1); int(r) < n; r++ {
		rank[cur] = r
		if cur*10 < n {
			cur *= 10 // first child: append a 0 digit
			continue
		}
		for cur%10 == 9 || cur+1 >= n {
			cur /= 10 // no next sibling: climb
		}
		cur++
	}
	return rank
}

// sortFacetsCanonical puts facets in the historical Seal order — descending
// size, then ascending comma-joined-decimal string order of the sorted
// vertex lists — comparing decimal ranks element-wise. That equals the
// joined-string order because ',' sorts below every digit.
func sortFacetsCanonical(facets [][]Vertex, nverts int) {
	rank := decimalRanks(nverts)
	slices.SortFunc(facets, func(a, b []Vertex) int {
		if len(a) != len(b) {
			return len(b) - len(a)
		}
		for i := range a {
			if a[i] != b[i] {
				return int(rank[a[i]]) - int(rank[b[i]])
			}
		}
		return 0
	})
}

// carrierUnion returns the sorted union of the carriers of the face's
// vertices in c (which must have a base), using scratch for the gather; the
// returned scratch is handed back for reuse.
func carrierUnion(c *Complex, face []Vertex, scratch []Vertex) (union, scratch2 []Vertex) {
	scratch = scratch[:0]
	for _, w := range face {
		scratch = append(scratch, c.verts[w].carrier...)
	}
	slices.Sort(scratch)
	scratch = slices.Compact(scratch)
	return append([]Vertex(nil), scratch...), scratch
}

// sdsFacetOut is the packed subdivision of a single source facet: distinct
// faces and distinct (u, face) vertices in first-occurrence order, and the
// subdivision facets as local vertex indices. All indices are local to the
// facet; the merger translates them into the global arena.
type sdsFacetOut struct {
	faceData []Vertex // packed source-vertex lists of local faces
	faceOff  []int32
	recU     []Vertex // per local vertex: the u of (u, face)
	recFace  []int32  // per local vertex: local face index
	fData    []int32  // packed facet lists of local vertex indices
	fOff     []int32
}

func (r *sdsFacetOut) reset() {
	r.faceData = r.faceData[:0]
	if r.faceOff == nil {
		r.faceOff = make([]int32, 1, 16)
	}
	r.faceOff = r.faceOff[:1]
	r.recU = r.recU[:0]
	r.recFace = r.recFace[:0]
	r.fData = r.fData[:0]
	if r.fOff == nil {
		r.fOff = make([]int32, 1, 16)
	}
	r.fOff = r.fOff[:1]
}

// sdsFacetBuilder is the scratch of the SDS builder. Local vertices of a
// facet of size k are interned positionally: vertex (u, S) with u = t[pos]
// and S the prefix set with bit mask m occupies slot m·k + pos of a
// version-stamped dense table, so interning is two array reads and no
// hashing. The tables persist across facets — the version stamp makes
// stale entries invisible.
type sdsFacetBuilder struct {
	version   int32
	vertStamp []int32 // slot (mask·k + pos) → version of last write
	vertID    []int32 // slot → local vertex index
	faceStamp []int32 // mask → version of last write
	faceID    []int32 // mask → local face index
	facetBuf  []int32 // current partition's facet under construction
}

// subdivide computes the one-shot IS subdivision of facet t of c into r,
// recording vertices in the exact order the sequential string-keyed
// construction would first encounter them (facet order is the ordered-
// partition enumeration order of ForEachOrderedPartition).
func (w *sdsFacetBuilder) subdivide(c *Complex, t []Vertex, r *sdsFacetOut) {
	k := len(t)
	if k > 30 {
		panic("topology: SDS of a facet with more than 31 vertices")
	}
	r.reset()
	if k == 0 {
		return
	}
	if need := (1 << k) * k; len(w.vertStamp) < need {
		w.vertStamp = make([]int32, need)
		w.vertID = make([]int32, need)
		w.faceStamp = make([]int32, 1<<k)
		w.faceID = make([]int32, 1<<k)
		w.version = 0
	}
	w.version++
	w.facetBuf = w.facetBuf[:0]
	w.rec(c, t, r, uint32(1<<k)-1, 0, k)
}

func (w *sdsFacetBuilder) rec(c *Complex, t []Vertex, r *sdsFacetOut, remaining, prefixMask uint32, k int) {
	if remaining == 0 {
		r.fData = append(r.fData, w.facetBuf...)
		r.fOff = append(r.fOff, int32(len(r.fData)))
		return
	}
	// Enumerate non-empty subsets of the remaining elements as the next
	// block, in the same sub = (sub−1)&remaining order as
	// ForEachOrderedPartition.
	for sub := remaining; sub > 0; sub = (sub - 1) & remaining {
		pm := prefixMask | sub
		mark := len(w.facetBuf)
		fid := w.internFace(t, r, pm, k)
		for m := sub; m != 0; m &= m - 1 {
			pos := bits.TrailingZeros32(m)
			slot := int(pm)*k + pos
			var id int32
			if w.vertStamp[slot] == w.version {
				id = w.vertID[slot]
			} else {
				id = int32(len(r.recU))
				r.recU = append(r.recU, t[pos])
				r.recFace = append(r.recFace, fid)
				w.vertStamp[slot] = w.version
				w.vertID[slot] = id
			}
			w.facetBuf = append(w.facetBuf, id)
		}
		w.rec(c, t, r, remaining&^sub, pm, k)
		w.facetBuf = w.facetBuf[:mark]
	}
}

func (w *sdsFacetBuilder) internFace(t []Vertex, r *sdsFacetOut, mask uint32, k int) int32 {
	if w.faceStamp[mask] == w.version {
		return w.faceID[mask]
	}
	fid := int32(len(r.faceOff) - 1)
	for m := mask; m != 0; m &= m - 1 {
		r.faceData = append(r.faceData, t[bits.TrailingZeros32(m)])
	}
	r.faceOff = append(r.faceOff, int32(len(r.faceData)))
	w.faceStamp[mask] = w.version
	w.faceID[mask] = fid
	return fid
}

// sdsMerger folds per-facet subdivision outputs, in source facet order,
// into one arena complex. The global face and vertex intern tables persist
// across all source facets, so shared faces glue by integer identity: the
// face table is keyed by packed vertex content, vertices by the 64-bit pair
// (global face, u). Absorbing results in facet order reproduces the exact
// first-occurrence vertex order of the historical string-keyed
// construction.
type sdsMerger struct {
	c    *Complex // source (Prev)
	out  *Complex
	lvl  *SDSLevel
	prov *provenance

	faceIDs map[string]int32  // packed face content → global face index
	vertIDs map[uint64]Vertex // face<<32 | u → global vertex

	encBuf  []byte
	faceMap []int32  // local face → global face, per absorbed facet
	vertMap []Vertex // local vertex → global vertex, per absorbed facet
}

func newSDSMerger(c *Complex) *sdsMerger {
	out := newArenaComplex(c, provSDS)
	return &sdsMerger{
		c:       c,
		out:     out,
		lvl:     &SDSLevel{Complex: out, Prev: c},
		prov:    out.prov,
		faceIDs: make(map[string]int32),
		vertIDs: make(map[uint64]Vertex),
	}
}

func (m *sdsMerger) absorb(r *sdsFacetOut) {
	nf := len(r.faceOff) - 1
	if cap(m.faceMap) < nf {
		m.faceMap = make([]int32, nf)
	}
	m.faceMap = m.faceMap[:nf]
	for j := 0; j < nf; j++ {
		content := r.faceData[r.faceOff[j]:r.faceOff[j+1]]
		m.encBuf = encodeVerts(m.encBuf[:0], content)
		gid, ok := m.faceIDs[string(m.encBuf)]
		if !ok {
			gid = int32(m.prov.numFaces())
			m.faceIDs[string(m.encBuf)] = gid
			m.prov.faceData = append(m.prov.faceData, content...)
			m.prov.faceOff = append(m.prov.faceOff, int32(len(m.prov.faceData)))
		}
		m.faceMap[j] = gid
	}
	nr := len(r.recU)
	if cap(m.vertMap) < nr {
		m.vertMap = make([]Vertex, nr)
	}
	m.vertMap = m.vertMap[:nr]
	for li := 0; li < nr; li++ {
		gface := m.faceMap[r.recFace[li]]
		u := r.recU[li]
		id := uint64(uint32(gface))<<32 | uint64(uint32(u))
		v, ok := m.vertIDs[id]
		if !ok {
			v = Vertex(len(m.out.verts))
			m.vertIDs[id] = v
			m.out.verts = append(m.out.verts, vertexAttr{color: m.c.verts[u].color})
			m.prov.u = append(m.prov.u, u)
			m.prov.face = append(m.prov.face, gface)
			m.lvl.U = append(m.lvl.U, u)
		}
		m.vertMap[li] = v
	}
	// One backing array for all of this source facet's subdivision facets;
	// each facet is capacity-capped, so an append can never run into its
	// neighbour.
	backing := make([]Vertex, len(r.fData))
	for i, lv := range r.fData {
		backing[i] = m.vertMap[lv]
	}
	for i := 0; i+1 < len(r.fOff); i++ {
		f := backing[r.fOff[i]:r.fOff[i+1]:r.fOff[i+1]]
		slices.Sort(f)
		m.out.facets = append(m.out.facets, f)
	}
}

// finish materializes carriers and the structural S slices (both alias the
// final, no-longer-growing face arena where possible) and seals the result
// via the trusted path: SDS facets are pairwise distinct and maximal by
// construction, so deduplication and containment checks are skipped.
func (m *sdsMerger) finish() *SDSLevel {
	out, p := m.out, m.prov
	m.lvl.S = make([][]Vertex, len(out.verts))
	var carriers [][]Vertex // per face, computed at most once
	var scratch []Vertex
	if m.c.base != nil {
		carriers = make([][]Vertex, p.numFaces())
	}
	for v := range out.verts {
		face := p.faceOf(p.face[v])
		m.lvl.S[v] = face
		if m.c.base == nil {
			// Carrier of (u, S) is S itself; the face arena is final, so
			// aliasing is safe.
			out.verts[v].carrier = face
		} else {
			fi := p.face[v]
			if carriers[fi] == nil {
				carriers[fi], scratch = carrierUnion(m.c, face, scratch)
			}
			out.verts[v].carrier = carriers[fi]
		}
	}
	out.sealTrusted()
	return m.lvl
}

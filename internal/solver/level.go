package solver

import (
	"encoding/binary"
	"slices"

	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

// Per-level set-up. A vertex's domain depends only on its colour and its
// carrier, and an edge's support table only on the (colour, carrier) pair
// of each endpoint, so both are computed once per class and shared: a
// level of SDS³ with ~10⁴ vertices and ~5·10⁴ edges has a few dozen vertex
// classes and a few hundred edge classes. Edges come straight from the
// facets, bucketed by their lower endpoint, and the simplices of dimension ≥ 2 are
// enumerated only after propagation has failed to empty a domain — the
// levels AC-3 decides (the whole consensus family) never build them.

// vertexClasses partitions a level's vertices by (colour, carrier).
type vertexClasses struct {
	of      []int32             // vertex → class
	carrier [][]topology.Vertex // class → carrier, shared with the complex
	domain  [][]topology.Vertex // class → domain, in output-vertex order
}

// classify groups the vertices of sub by (colour, carrier) and builds each
// class's domain: the output vertices of its colour that are allowed as a
// singleton decision for its carrier.
func classify(task *tasks.Task, sub *topology.Complex) *vertexClasses {
	nv := sub.NumVertices()
	cl := &vertexClasses{of: make([]int32, nv)}
	ids := make(map[string]int32)
	byColor := make(map[int][]topology.Vertex)
	var key []byte
	for v := 0; v < nv; v++ {
		col := sub.Color(topology.Vertex(v))
		car := sub.Carrier(topology.Vertex(v))
		key = binary.LittleEndian.AppendUint32(key[:0], uint32(col))
		for _, w := range car {
			key = binary.LittleEndian.AppendUint32(key, uint32(w))
		}
		id, ok := ids[string(key)]
		if !ok {
			id = int32(len(cl.carrier))
			ids[string(key)] = id
			ws, seen := byColor[col]
			if !seen {
				ws = task.Outputs.VerticesOfColor(col)
				byColor[col] = ws
			}
			var dom []topology.Vertex
			for _, w := range ws {
				if task.Allowed(car, []topology.Vertex{w}) {
					dom = append(dom, w)
				}
			}
			cl.carrier = append(cl.carrier, car)
			cl.domain = append(cl.domain, dom[:len(dom):len(dom)])
		}
		cl.of[v] = id
	}
	return cl
}

// domains returns the per-vertex view of the class domains (vertices of
// one class share one slice; nobody appends to a domain).
func (cl *vertexClasses) domains() [][]topology.Vertex {
	out := make([][]topology.Vertex, len(cl.of))
	for v, c := range cl.of {
		out[v] = cl.domain[c]
	}
	return out
}

// buildEdges fills st.edges with the 1-simplices of the level in
// lexicographic order — the order AllSimplices lists edges in, so AC-3 visits
// them identically — and gives each the support table of its class pair,
// built on first use. Each facet pair u < v is bucketed under u; sorting
// and compacting each (short) bucket then yields the edges in order
// without a global sort or a dedup map.
func (st *searchState) buildEdges(cl *vertexClasses) {
	facets := st.sub.Facets()
	start := make([]int, len(cl.of)+1)
	for _, f := range facets {
		for i, u := range f {
			start[u+1] += len(f) - 1 - i
		}
	}
	for u := range cl.of {
		start[u+1] += start[u]
	}
	nbrs := make([]topology.Vertex, start[len(cl.of)])
	fill := slices.Clone(start[:len(cl.of)])
	for _, f := range facets {
		for i, u := range f {
			fill[u] += copy(nbrs[fill[u]:], f[i+1:])
		}
	}

	st.edges = make([]edgeRec, 0, len(nbrs)/2)
	tables := make(map[uint64][]bool)
	pair := make([]topology.Vertex, 2)
	var carrier []topology.Vertex
	for u := range cl.of {
		seg := nbrs[start[u]:start[u+1]]
		slices.Sort(seg)
		for _, v := range slices.Compact(seg) {
			cu, cv := cl.of[u], cl.of[v]
			du, dv := cl.domain[cu], cl.domain[cv]
			ck := uint64(cu)<<32 | uint64(cv)
			ok, seen := tables[ck]
			if !seen {
				carrier = unionSorted(carrier[:0], cl.carrier[cu], cl.carrier[cv])
				ok = make([]bool, len(du)*len(dv))
				for a, wu := range du {
					for b, wv := range dv {
						pair[0], pair[1] = wu, wv
						ok[a*len(dv)+b] = st.task.Outputs.HasSimplex(pair) && st.task.Allowed(carrier, pair)
					}
				}
				tables[ck] = ok
			}
			st.edges = append(st.edges, edgeRec{u: u, v: int(v), dv: len(dv), ok: ok})
		}
	}
}

// buildSimplices enumerates the simplices of dimension ≥ 1 with their
// carriers, for collapse, restore and the higher-dimensional check
// schedule. Only levels that survive propagation pay for it.
func (st *searchState) buildSimplices() {
	edgeVerts := make([]topology.Vertex, 0, 2*len(st.edges))
	for _, e := range st.edges {
		edgeVerts = append(edgeVerts, topology.Vertex(e.u), topology.Vertex(e.v))
	}
	for i := range st.edges {
		st.flat = append(st.flat, edgeVerts[2*i:2*i+2:2*i+2])
	}
	facets := st.sub.Facets()
	maxk := 0
	for _, f := range facets {
		maxk = max(maxk, len(f))
	}
	for k := 3; k <= maxk; k++ {
		st.flat = append(st.flat, kSubsets(facets, k)...)
	}
	st.carriers = make([][]topology.Vertex, len(st.flat))
	for i, s := range st.flat {
		st.carriers[i] = simplexCarrier(st.sub, s)
	}
}

// kSubsets returns the distinct k-vertex faces of the facets, sorted
// lexicographically: every k-subset of every facet is gathered into one
// flat buffer, an index over it is sorted, and neighbours are compacted.
// The returned slices alias the buffer.
func kSubsets(facets [][]topology.Vertex, k int) [][]topology.Vertex {
	var buf []topology.Vertex
	pick := make([]int, k)
	for _, f := range facets {
		if len(f) < k {
			continue
		}
		for i := range pick {
			pick[i] = i
		}
		for {
			for _, p := range pick {
				buf = append(buf, f[p])
			}
			i := k - 1
			for i >= 0 && pick[i] == len(f)-k+i {
				i--
			}
			if i < 0 {
				break
			}
			pick[i]++
			for j := i + 1; j < k; j++ {
				pick[j] = pick[j-1] + 1
			}
		}
	}
	tuple := func(i int) []topology.Vertex { return buf[i*k : i*k+k : i*k+k] }
	idx := make([]int, len(buf)/k)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return slices.Compare(tuple(a), tuple(b)) })
	out := make([][]topology.Vertex, 0, len(idx))
	for _, i := range idx {
		if t := tuple(i); len(out) == 0 || !slices.Equal(out[len(out)-1], t) {
			out = append(out, t)
		}
	}
	return out
}

// simplexCarrier returns the carrier of s. In a chromatic subdivision the
// carriers of a simplex's vertices are nested, so their union is the
// largest of them and is returned as is; otherwise the union is built.
func simplexCarrier(sub *topology.Complex, s []topology.Vertex) []topology.Vertex {
	big := sub.Carrier(s[0])
	for _, v := range s[1:] {
		if c := sub.Carrier(v); len(c) > len(big) {
			big = c
		}
	}
	for _, v := range s {
		if !subsetSorted(sub.Carrier(v), big) {
			return sub.CarrierOfSimplex(s)
		}
	}
	return big
}

// subsetSorted reports a ⊆ b for ascending, duplicate-free slices.
func subsetSorted(a, b []topology.Vertex) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
	}
	return true
}

// unionSorted appends the union of the ascending, duplicate-free slices a
// and b to dst.
func unionSorted(dst, a, b []topology.Vertex) []topology.Vertex {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

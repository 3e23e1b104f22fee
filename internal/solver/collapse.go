package solver

import "waitfree/internal/topology"

// Collapse preprocessing à la Benavides–Rajsbaum ("The read/write protocol
// complex is collapsible"): chromatic subdivisions are riddled with dominated
// vertices — vertices v such that some other vertex u lies in every facet
// containing v — and eliminating them before the map search shrinks the
// assignment problem without changing the verdict.
//
// Soundness is direction-split. Unsolvable: the simplices induced on the
// surviving vertices are simplices of the full subdivision with their
// original carriers, so restricting any full decision map yields a reduced
// one — reduced unsolvable therefore proves full unsolvable, for ANY
// elimination set. Solvable: the reduced solution is extended vertex by
// vertex in reverse elimination order (restore), checking every incident
// simplex whose other vertices are already decided; domination makes the
// extension overwhelmingly likely but not guaranteed in the chromatic
// setting (δ(v) := δ(u) is not color-preserving), so a failed restore — or
// a restored map failing VerifyDecisionMap — triggers a collapse-free
// re-search (solveStructured's fallback). Verdicts are thus always exact;
// collapse only ever trades nodes.

// collapse eliminates dominated vertices from the remaining set to a
// fixpoint and returns them in elimination order. Vertices whose
// post-propagation domain is a singleton are kept: they are the constraint
// sources (pinned corners and chains) whose influence the search needs, and
// removing them is what would most likely strand restore.
//
// Domination alone is not enough in the chromatic setting — δ(v) := δ(u) is
// not color-preserving, so removing a dominated vertex can turn an
// unsolvable level into a solvable reduced one and force the expensive
// fallback. Elimination therefore additionally requires a universal value:
// an active value of v consistent, for every incident simplex, with every
// active combination of that simplex's other vertices. A vertex with one is
// provably redundant — no assignment of the others can strand it — so
// restore cannot fail at it and verdicts are exact in both directions even
// before the fallback safety net.
func (st *searchState) collapse(remaining []bool) []int {
	facets := st.sub.Facets()
	nv := len(st.vals)
	inc := make([][]int, nv) // vertex → incident facet indices
	for fi, f := range facets {
		for _, v := range f {
			inc[v] = append(inc[v], fi)
		}
	}
	incSimp := st.incidentSimplices()
	var eliminated []int
	for {
		changed := false
		for v := 0; v < nv; v++ {
			if !remaining[v] || st.count[v] == 1 || len(inc[v]) == 0 {
				continue
			}
			if st.dominator(v, remaining, facets, inc[v]) >= 0 && st.hasUniversalValue(v, incSimp[v]) {
				remaining[v] = false
				eliminated = append(eliminated, v)
				changed = true
			}
		}
		if !changed {
			return eliminated
		}
	}
}

// incidentSimplices maps each vertex to the indices of its incident
// simplices in st.flat (all of dimension ≥ 1).
func (st *searchState) incidentSimplices() [][]int {
	inc := make([][]int, len(st.vals))
	for i, s := range st.flat {
		for _, v := range s {
			inc[v] = append(inc[v], i)
		}
	}
	return inc
}

// hasUniversalValue reports whether some active value of v is consistent
// with every active combination of the other vertices across every incident
// simplex (eliminated neighbors included — restore re-checks their
// simplices too). Exponential in the simplex dimension, but dimensions are
// the input complex's (≤ a handful) and post-propagation domains are tiny.
func (st *searchState) hasUniversalValue(v int, simps []int) bool {
	var scratch []topology.Vertex
values:
	for i, act := range st.active[v] {
		if !act {
			continue
		}
		for _, si := range simps {
			if !st.valueUniversalFor(v, st.vals[v][i], si, &scratch) {
				continue values
			}
		}
		return true
	}
	return false
}

// valueUniversalFor checks value w at vertex v against every active
// combination of the other vertices of simplex si, via an odometer over
// their domains.
func (st *searchState) valueUniversalFor(v int, w topology.Vertex, si int, scratch *[]topology.Vertex) bool {
	s := st.flat[si]
	others := make([]int, 0, len(s)-1)
	for _, u := range s {
		if int(u) != v {
			others = append(others, int(u))
		}
	}
	item := [1]checkItem{{simplex: s, carrier: st.carriers[si]}}
	// Iterate the cartesian product of the others' active values, writing
	// each combination into st.assign (saved and restored — collapse runs
	// before any search touches assign, but keep it clean).
	saved := make([]topology.Vertex, len(others)+1)
	for k, u := range others {
		saved[k] = st.assign[u]
	}
	saved[len(others)] = st.assign[v]
	defer func() {
		for k, u := range others {
			st.assign[u] = saved[k]
		}
		st.assign[v] = saved[len(others)]
	}()
	st.assign[v] = w
	idx := make([]int, len(others))
	for k, u := range others {
		idx[k] = st.nextActive(u, 0)
		if idx[k] < 0 {
			return true // empty domain: no combination to violate
		}
		st.assign[u] = st.vals[u][idx[k]]
	}
	for {
		if !consistent(st.task, item[:], st.assign, scratch) {
			return false
		}
		k := len(others) - 1
		for k >= 0 {
			next := st.nextActive(others[k], idx[k]+1)
			if next >= 0 {
				idx[k] = next
				st.assign[others[k]] = st.vals[others[k]][next]
				break
			}
			idx[k] = st.nextActive(others[k], 0)
			st.assign[others[k]] = st.vals[others[k]][idx[k]]
			k--
		}
		if k < 0 {
			return true
		}
	}
}

// nextActive returns the first active value index of vertex u at or after
// from, or -1.
func (st *searchState) nextActive(u, from int) int {
	for i := from; i < len(st.active[u]); i++ {
		if st.active[u][i] {
			return i
		}
	}
	return -1
}

// dominator returns a remaining vertex u ≠ v contained in every facet
// incident to v, or -1. Candidates come from the first incident facet — a
// dominator must lie there like everywhere else.
func (st *searchState) dominator(v int, remaining []bool, facets [][]topology.Vertex, vfacets []int) int {
	for _, u := range facets[vfacets[0]] {
		uu := int(u)
		if uu == v || !remaining[uu] {
			continue
		}
		inAll := true
		for _, fi := range vfacets[1:] {
			found := false
			for _, w := range facets[fi] {
				if int(w) == uu {
					found = true
					break
				}
			}
			if !found {
				inAll = false
				break
			}
		}
		if inAll {
			return uu
		}
	}
	return -1
}

// restore extends the reduced solution over the eliminated vertices in
// reverse elimination order. For each vertex it tries its active values in
// original domain order, accepting the first under which every incident
// simplex with all other vertices decided is consistent (each simplex is
// therefore checked exactly once, at its last-restored vertex). Greedy — a
// false return does not disprove extendability, it hands control to the
// collapse-free fallback.
func (st *searchState) restore(eliminated []int) bool {
	incSimp := st.incidentSimplices()
	var scratch []topology.Vertex
	for i := len(eliminated) - 1; i >= 0; i-- {
		v := eliminated[i]
		ok := false
		for j, w := range st.vals[v] {
			if !st.active[v][j] {
				continue
			}
			st.assign[v] = w
			st.assigned[v] = true
			if st.checkIncident(incSimp[v], &scratch) {
				ok = true
				break
			}
			st.assigned[v] = false
		}
		if !ok {
			return false
		}
	}
	return true
}

// checkIncident verifies the given simplices, skipping any with an
// undecided vertex (those are checked later, when their last vertex is
// restored).
func (st *searchState) checkIncident(simps []int, scratch *[]topology.Vertex) bool {
	var item [1]checkItem
	for _, si := range simps {
		decided := true
		for _, u := range st.flat[si] {
			if !st.assigned[u] {
				decided = false
				break
			}
		}
		if !decided {
			continue
		}
		item[0] = checkItem{simplex: st.flat[si], carrier: st.carriers[si]}
		if !consistent(st.task, item[:], st.assign, scratch) {
			return false
		}
	}
	return true
}

package solver

import (
	"context"
	"fmt"

	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

// Constraint propagation for the structured engine. The binary constraints
// of the decision-map problem live on the 1-skeleton of the subdivision:
// for an edge {u, v}, the pair of decisions (δ(u), δ(v)) must be a simplex
// of the output complex and allowed for the edge's carrier. searchState
// materializes those constraints once — a boolean support table per edge,
// shared by every edge of one class pair (level.go) — and then uses them
// twice: an AC-3 arc-consistency pass before the search
// (pruning per-vertex domains to values that have a support across every
// incident edge) and forward checking inside the backtracking (pruning
// unassigned neighbors' domains the moment a vertex is assigned, so a dead
// branch dies at its first emptied domain instead of after a full facet is
// assigned). Higher-dimensional constraints (triangles and up) cannot be
// tabulated this way without blowing memory; they are verified by the same
// incremental checkItem schedule the exhaustive engine uses.

// edgeRec is one 1-simplex {u, v} (u < v) with a flat support table:
// ok[i*dv+j] reports whether (vals[u][i], vals[v][j]) is a legal decision
// pair for this edge. Edges whose endpoints share (colour, carrier) classes
// share one table.
type edgeRec struct {
	u, v int
	dv   int    // len(vals[v]), the row stride of ok
	ok   []bool // len(vals[u]) × len(vals[v]); read-only, shared
}

// neighborRef is an adjacency entry: the neighbor vertex and the incident
// edge, plus the orientation (flip: the owner is the edge's v side).
type neighborRef struct {
	nbr  int
	edge int
	flip bool
}

// trailEntry records one forward-checking domain deactivation for undo.
type trailEntry struct {
	vert int
	idx  int
}

// searchState is the structured engine's per-level state: fixed value
// tables with active masks (so pruning is O(1) flag flips, original value
// order is preserved, and undo is a trail walk), the edge support tables,
// and adjacency restricted to vertices that survive collapse.
type searchState struct {
	task *tasks.Task
	sub  *topology.Complex

	vals   [][]topology.Vertex // initial (post-domain-build) values per vertex
	active [][]bool            // active[v][i]: vals[v][i] still in the domain
	count  []int               // number of active values per vertex

	edges []edgeRec
	adj   [][]neighborRef // built over remaining vertices by buildAdjacency

	// Every simplex of dimension ≥ 1 with its carrier, filled by
	// buildSimplices only once propagation has left every domain non-empty.
	flat     [][]topology.Vertex
	carriers [][]topology.Vertex

	assigned []bool
	assign   []topology.Vertex
}

// newSearchState builds the state: one backing array for the active masks,
// and the edge records with their class-shared support tables.
func newSearchState(task *tasks.Task, sub *topology.Complex, cl *vertexClasses, domains [][]topology.Vertex) *searchState {
	nv := sub.NumVertices()
	st := &searchState{
		task:     task,
		sub:      sub,
		vals:     domains,
		active:   make([][]bool, nv),
		count:    make([]int, nv),
		assigned: make([]bool, nv),
		assign:   make([]topology.Vertex, nv),
	}
	total := 0
	for _, d := range domains {
		total += len(d)
	}
	mask := make([]bool, total)
	for i := range mask {
		mask[i] = true
	}
	for v, d := range domains {
		st.active[v], mask = mask[:len(d):len(d)], mask[len(d):]
		st.count[v] = len(d)
	}
	st.buildEdges(cl)
	return st
}

// propagate runs AC-3 to a fixpoint: a vertex-based worklist — when v's
// domain shrinks, every neighbor u is revised against v (a value of u
// survives only with at least one active support across the {u, v} edge).
// Returns the number of values pruned and whether every domain stayed
// non-empty (false = the level is unsolvable with zero search nodes: any
// decision map restricted to an edge would be a support).
func (st *searchState) propagate(ctx context.Context) (pruned int64, ok bool, err error) {
	nv := len(st.vals)
	// incident[v] lists v's edges in edge order, packed in one array.
	deg := make([]int, nv+1)
	for _, e := range st.edges {
		deg[e.u+1]++
		deg[e.v+1]++
	}
	for v := 0; v < nv; v++ {
		deg[v+1] += deg[v]
	}
	backing := make([]int, 2*len(st.edges))
	incident := make([][]int, nv)
	for v := range incident {
		incident[v] = backing[deg[v]:deg[v]:deg[v+1]]
	}
	for i, e := range st.edges {
		incident[e.u] = append(incident[e.u], i)
		incident[e.v] = append(incident[e.v], i)
	}
	inQueue := make([]bool, nv)
	queue := make([]int, 0, nv)
	for v := 0; v < nv; v++ {
		queue = append(queue, v)
		inQueue[v] = true
	}
	steps := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		inQueue[v] = false
		if steps++; steps&(cancelCheckInterval-1) == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return pruned, false, fmt.Errorf("%w: %w", ErrCanceled, cerr)
			}
		}
		// Revise every neighbor u against v.
		for _, ei := range incident[v] {
			e := &st.edges[ei]
			u := e.u
			if u == v {
				u = e.v
			}
			changed := false
			for i, act := range st.active[u] {
				if !act {
					continue
				}
				if !st.hasSupport(e, u, i, v) {
					st.active[u][i] = false
					st.count[u]--
					pruned++
					changed = true
				}
			}
			if st.count[u] == 0 {
				return pruned, false, nil
			}
			if changed && !inQueue[u] {
				queue = append(queue, u)
				inQueue[u] = true
			}
		}
	}
	return pruned, true, nil
}

// hasSupport reports whether value index i of vertex u has at least one
// active supporting value at the other endpoint of edge e.
func (st *searchState) hasSupport(e *edgeRec, u, i, other int) bool {
	if u == e.u {
		for j, act := range st.active[other] {
			if act && e.ok[i*e.dv+j] {
				return true
			}
		}
		return false
	}
	for j, act := range st.active[other] {
		if act && e.ok[j*e.dv+i] {
			return true
		}
	}
	return false
}

// pairOK reports whether assigning value index iv at vertex v and value
// index iu at vertex u satisfies edge e ({u,v} in either orientation —
// flip means v is the edge's second endpoint).
func (e *edgeRec) pairOK(iOwner, iNbr int, flip bool) bool {
	if flip { // owner is e.v
		return e.ok[iNbr*e.dv+iOwner]
	}
	return e.ok[iOwner*e.dv+iNbr]
}

// buildAdjacency wires up neighbor references over the remaining (non-
// eliminated) vertex set. Edges with an eliminated endpoint are excluded —
// their constraints are re-checked when the eliminated vertex is restored.
func (st *searchState) buildAdjacency(remaining []bool) {
	st.adj = make([][]neighborRef, len(st.vals))
	for i := range st.edges {
		e := &st.edges[i]
		if !remaining[e.u] || !remaining[e.v] {
			continue
		}
		st.adj[e.u] = append(st.adj[e.u], neighborRef{nbr: e.v, edge: i, flip: false})
		st.adj[e.v] = append(st.adj[e.v], neighborRef{nbr: e.u, edge: i, flip: true})
	}
}

// forwardCheck prunes the domains of v's unassigned neighbors down to
// values supported by the assignment vals[v][iv], recording every
// deactivation on the caller's trail (per-component, so parallel component
// searches never share undo state — they only ever touch their own
// component's vertices). Returns the trail mark to undo to and whether all
// neighbor domains stayed non-empty.
func (st *searchState) forwardCheck(v, iv int, trail *[]trailEntry) (mark int, ok bool) {
	mark = len(*trail)
	for _, nr := range st.adj[v] {
		u := nr.nbr
		if st.assigned[u] {
			continue
		}
		e := &st.edges[nr.edge]
		for j, act := range st.active[u] {
			if !act {
				continue
			}
			if !e.pairOK(iv, j, nr.flip) {
				st.active[u][j] = false
				st.count[u]--
				*trail = append(*trail, trailEntry{vert: u, idx: j})
			}
		}
		if st.count[u] == 0 {
			return mark, false
		}
	}
	return mark, true
}

// undo rewinds the trail to mark, reactivating every value deactivated
// since.
func (st *searchState) undo(trail *[]trailEntry, mark int) {
	t := *trail
	for i := len(t) - 1; i >= mark; i-- {
		st.active[t[i].vert][t[i].idx] = true
		st.count[t[i].vert]++
	}
	*trail = t[:mark]
}

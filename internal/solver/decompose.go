package solver

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

// Independent decomposition. A simplex is a clique of the 1-skeleton, so
// every constraint (binary or higher) lives entirely inside one connected
// component of the constraint graph over the remaining (post-collapse)
// vertices. The level therefore splits into independent subproblems: a
// decision map exists iff every component admits one, and the assignments
// compose by disjoint union. Components are searched one after another, and
// the search stops at the first component that admits no map.

// component is one independent subproblem: its vertices in search order and
// the higher-dimensional (dim ≥ 2) check schedule, indexed by position in
// that order. Binary constraints are handled by forward checking; singleton
// constraints were folded into the domains.
type component struct {
	order  []int
	checks [][]checkItem
}

// components splits the remaining vertices into connected components of the
// 1-skeleton (isolated vertices form their own components), each with a
// min-domain depth-first search order and its check schedule. Ordered by
// smallest contained vertex, so the split is deterministic.
func (st *searchState) components(remaining []bool) []*component {
	nv := len(st.vals)
	comp := make([]int, nv)
	for v := range comp {
		comp[v] = -1
	}
	var groups [][]int
	for v := 0; v < nv; v++ {
		if !remaining[v] || comp[v] >= 0 {
			continue
		}
		id := len(groups)
		stack := []int{v}
		comp[v] = id
		var members []int
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, x)
			for _, nr := range st.adj[x] {
				if comp[nr.nbr] < 0 {
					comp[nr.nbr] = id
					stack = append(stack, nr.nbr)
				}
			}
		}
		sort.Ints(members)
		groups = append(groups, members)
	}

	out := make([]*component, len(groups))
	pos := make([]int, nv)
	for id, members := range groups {
		c := &component{order: st.orderComponent(members)}
		for p, v := range c.order {
			pos[v] = p
		}
		c.checks = make([][]checkItem, len(c.order))
		out[id] = c
	}
	// Schedule each dim ≥ 2 simplex whose vertices all remain at the
	// position (within its component's order) where its last vertex is
	// assigned. Dim 0 is folded into domains, dim 1 into forward checking.
	for i, s := range st.flat {
		if len(s) < 3 {
			continue
		}
		id, last, ok := -1, -1, true
		for _, v := range s {
			if !remaining[v] {
				ok = false
				break
			}
			id = comp[int(v)]
			if pos[v] > last {
				last = pos[v]
			}
		}
		if ok {
			out[id].checks[last] = append(out[id].checks[last], checkItem{simplex: s, carrier: st.carriers[i]})
		}
	}
	return out
}

// orderComponent orders one component's vertices for the backtracking
// search: depth-first over the adjacency, seeded at the most constrained
// vertex, visiting neighbors by ascending current domain size (then index).
// Like searchOrder, but on post-propagation domain counts — the AC-3 pass
// typically leaves corner chains as singletons, which the ordering then
// assigns first.
func (st *searchState) orderComponent(members []int) []int {
	sorted := make(map[int][]int, len(members))
	for _, v := range members {
		ns := make([]int, 0, len(st.adj[v]))
		for _, nr := range st.adj[v] {
			ns = append(ns, nr.nbr)
		}
		sort.Slice(ns, func(i, j int) bool {
			if st.count[ns[i]] != st.count[ns[j]] {
				return st.count[ns[i]] < st.count[ns[j]]
			}
			return ns[i] < ns[j]
		})
		sorted[v] = ns
	}
	visited := make(map[int]bool, len(members))
	order := make([]int, 0, len(members))
	var dfs func(v int)
	dfs = func(v int) {
		visited[v] = true
		order = append(order, v)
		for _, u := range sorted[v] {
			if !visited[u] {
				dfs(u)
			}
		}
	}
	for len(order) < len(members) {
		seed := -1
		for _, v := range members {
			if !visited[v] && (seed < 0 || st.count[v] < st.count[seed]) {
				seed = v
			}
		}
		dfs(seed)
	}
	return order
}

// searchComponent runs the forward-checking backtracking search on one
// component, returning whether it found a map and the nodes it explored.
// Assignments land in st.assign/st.assigned (component vertex sets are
// disjoint, so components never overwrite each other); domain pruning is
// undone via the local trail, so on return the active masks are exactly as
// propagation left them whether or not a map was found.
func (st *searchState) searchComponent(ctx context.Context, c *component, maxNodes int64) (found bool, nodes int64, err error) {
	var (
		trail   []trailEntry
		scratch []topology.Vertex
	)
	n := len(c.order)
	var dfs func(p int) (bool, error)
	dfs = func(p int) (bool, error) {
		if p == n {
			return true, nil
		}
		v := c.order[p]
		for i, w := range st.vals[v] {
			if !st.active[v][i] {
				continue
			}
			nodes++
			if nodes > maxNodes {
				return false, ErrBudget
			}
			if nodes&(cancelCheckInterval-1) == 0 {
				if cerr := ctx.Err(); cerr != nil {
					return false, fmt.Errorf("%w: %w", ErrCanceled, cerr)
				}
			}
			st.assign[v] = w
			st.assigned[v] = true
			if consistent(st.task, c.checks[p], st.assign, &scratch) {
				mark, ok := st.forwardCheck(v, i, &trail)
				if ok {
					found, err := dfs(p + 1)
					if found || err != nil {
						return found, err
					}
				}
				st.undo(&trail, mark)
			}
			st.assigned[v] = false
		}
		return false, nil
	}
	found, err = dfs(0)
	if found {
		// Leave the solution assigned for composition; re-mark the
		// vertices (the last dfs frames cleared flags on unwind only when
		// backtracking, but mark explicitly for clarity and safety).
		for _, v := range c.order {
			st.assigned[v] = true
		}
	}
	// A found solution leaves its forward-checking prunes on the trail;
	// rewind so the active masks return to the propagation fixpoint (the
	// restore phase reads eliminated vertices' domains, which forward
	// checking never touched, but keeping the invariant tight is cheap).
	st.undo(&trail, 0)
	return found, nodes, err
}

// searchComponents searches the components in order and stops at the first
// one that fails or errors: the reported node count sums component counts
// up to and including it.
func (st *searchState) searchComponents(ctx context.Context, comps []*component, maxNodes int64) (solvable bool, nodes int64, compNodes []int64, err error) {
	solvable = true
	for _, c := range comps {
		found, n, cerr := st.searchComponent(ctx, c, maxNodes)
		compNodes = append(compNodes, n)
		nodes += n
		if cerr != nil || !found {
			solvable, err = false, cerr
			break
		}
	}
	if err == nil && nodes > maxNodes {
		err = ErrBudget
	}
	return solvable, nodes, compNodes, err
}

// solveStructured is the structured engine's driver: propagate, collapse,
// decompose, search, restore — with a verified fallback that re-runs the
// level without collapse if restoring eliminated vertices ever fails, so
// collapse can never change a verdict.
func solveStructured(ctx context.Context, task *tasks.Task, sub *topology.Complex, cl *vertexClasses, domains [][]topology.Vertex, opts Options, maxNodes int64, res *Result) error {
	err := solveStructuredOnce(ctx, task, sub, cl, domains, opts, maxNodes, res, opts.NoCollapse)
	if err == nil || !errors.Is(err, errRestoreFailed) {
		return err
	}
	// Restoration failed: the reduced problem was solvable but its
	// solution did not extend past a collapse. Re-search with collapse
	// disabled (propagation, decomposition, and forward checking are
	// complete, so this pass is exact); keep both passes' node counts —
	// the work was really done.
	prior := *res
	res.Stats = Stats{}
	if err := solveStructuredOnce(ctx, task, sub, cl, domains, opts, maxNodes, res, true); err != nil {
		res.Nodes += prior.Nodes
		return err
	}
	res.Nodes += prior.Nodes
	res.Stats.CollapseFallback = true
	res.Stats.CollapsedVertices = prior.Stats.CollapsedVertices
	return nil
}

// errRestoreFailed is the internal signal that collapse restoration could
// not extend a reduced solution; solveStructured translates it into a
// collapse-free re-search, so it never escapes the package.
var errRestoreFailed = errors.New("solver: collapse restoration failed")

func solveStructuredOnce(ctx context.Context, task *tasks.Task, sub *topology.Complex, cl *vertexClasses, domains [][]topology.Vertex, opts Options, maxNodes int64, res *Result, noCollapse bool) error {
	st := newSearchState(task, sub, cl, domains)
	pruned, ok, err := st.propagate(ctx)
	res.Stats.PrunedValues = pruned
	if err != nil {
		return err
	}
	if !ok {
		res.Solvable = false // an emptied domain is an unsolvability proof
		return nil
	}
	st.buildSimplices()

	remaining := make([]bool, len(st.vals))
	for v := range remaining {
		remaining[v] = true
	}
	var eliminated []int
	if !noCollapse {
		eliminated = st.collapse(remaining)
	}
	res.Stats.CollapsedVertices = len(eliminated)

	st.buildAdjacency(remaining)
	comps := st.components(remaining)
	res.Stats.Components = len(comps)

	solvable, nodes, compNodes, err := st.searchComponents(ctx, comps, maxNodes)
	res.Nodes = nodes
	res.Stats.ComponentNodes = compNodes
	if err != nil {
		return err
	}
	if !solvable {
		res.Solvable = false
		return nil
	}

	if len(eliminated) > 0 {
		if !st.restore(eliminated) {
			return errRestoreFailed
		}
	}
	m := topology.NewSimplicialMap(sub, task.Outputs)
	copy(m.Image, st.assign)
	res.Solvable = true
	res.Map = m
	// Belt and braces around collapse: a restored map is re-validated
	// against the full Proposition 3.1 conditions; any discrepancy (none
	// is possible if restore checked every incident simplex, but the
	// collapse layer is new) falls back to the collapse-free search.
	if len(eliminated) > 0 {
		if verr := VerifyDecisionMap(task, res); verr != nil {
			res.Solvable = false
			res.Map = nil
			return errRestoreFailed
		}
	}
	return nil
}

// Package converge makes the paper's Section 5 effective: Theorem 5.1 (for
// any chromatic subdivision A of sⁿ there is, for k large enough, a color-
// and carrier-preserving simplicial map SDS^k(sⁿ) → A) and the chromatic
// simplex agreement task (CSASS) it solves.
//
// The paper derives the theorem from the simplicial approximation theorem
// plus the simplex convergence algorithm, whose paths and fill-ins exist but
// are not constructed. Here the map is found by direct exhaustive search at
// increasing levels k (a decidable search for each fixed k, by the same CSP
// machinery as the solvability checker); the distributed protocol then
// solves CSASS for real: run k rounds of the iterated immediate snapshot
// full-information protocol, locate your view as a vertex of SDS^k(sⁿ), and
// output its image under the map. Carrier preservation of the map is
// exactly what makes the outputs' carrier respect the participating set.
package converge

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"waitfree/internal/obs"
	"waitfree/internal/protocol"
	"waitfree/internal/topology"
)

// ErrNotFound reports that no map exists up to the given level.
var ErrNotFound = errors.New("converge: no simplicial map found up to max level")

// cancelCheckInterval is the cadence, in backtracking nodes, of the
// cooperative cancellation checkpoint in searchMap (mirrors the solver's).
const cancelCheckInterval = 4096

// FindChromaticMap searches for a color-preserving, carrier-respecting
// simplicial map SDS^k(base) → a, trying k = 0 … maxK, and returns the map
// and the level found. a must be a chromatic subdivision of base.
func FindChromaticMap(base, a *topology.Complex, maxK int) (*topology.SimplicialMap, int, error) {
	return FindChromaticMapCtx(context.Background(), base, a, maxK)
}

// FindChromaticMapCtx is FindChromaticMap honoring ctx: the per-level
// backtracking search and the subdivision between levels stop cooperatively
// when ctx is done, returning an error wrapping ctx.Err().
func FindChromaticMapCtx(ctx context.Context, base, a *topology.Complex, maxK int) (*topology.SimplicialMap, int, error) {
	if !a.IsChromatic() {
		return nil, 0, fmt.Errorf("converge: target complex is not chromatic")
	}
	return findMap(ctx, base, a, maxK, true)
}

// FindCarrierMap is the non-chromatic variant (Lemma 5.3): it searches for a
// carrier-respecting simplicial map SDS^k(base) → a ignoring colors. Use it
// with barycentric subdivisions and other uncolored targets.
func FindCarrierMap(base, a *topology.Complex, maxK int) (*topology.SimplicialMap, int, error) {
	return FindCarrierMapCtx(context.Background(), base, a, maxK)
}

// FindCarrierMapCtx is FindCarrierMap honoring ctx.
func FindCarrierMapCtx(ctx context.Context, base, a *topology.Complex, maxK int) (*topology.SimplicialMap, int, error) {
	return findMap(ctx, base, a, maxK, false)
}

func findMap(ctx context.Context, base, a *topology.Complex, maxK int, chromatic bool) (phi *topology.SimplicialMap, level int, err error) {
	if ab := a.Base(); ab != base {
		return nil, 0, fmt.Errorf("converge: target is not a subdivision of the given base")
	}
	// Tracing: one converge.map span for the whole Theorem 5.1 search,
	// carrying the level found and the domain/target sizes. Nil-safe no-op
	// without a trace in ctx.
	ctx, span := obs.StartSpan(ctx, "converge.map")
	span.SetInt("max_k", int64(maxK))
	span.SetInt("target_vertices", int64(a.NumVertices()))
	defer func() {
		if phi != nil {
			span.SetInt("k", int64(level))
			span.SetInt("domain_vertices", int64(phi.From.NumVertices()))
			span.SetInt("found", 1)
		} else {
			span.SetInt("found", 0)
		}
		span.Finish()
	}()
	domainFor := func(sub *topology.Complex, v topology.Vertex) []topology.Vertex {
		var dom []topology.Vertex
		carrier := sub.Carrier(v)
		for w := 0; w < a.NumVertices(); w++ {
			if chromatic && a.Color(topology.Vertex(w)) != sub.Color(v) {
				continue
			}
			if !vertexSetSubset(a.Carrier(topology.Vertex(w)), carrier) {
				continue
			}
			dom = append(dom, topology.Vertex(w))
		}
		return dom
	}
	sub := base
	for k := 0; k <= maxK; k++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, fmt.Errorf("converge: search canceled: %w", err)
		}
		if k > 0 {
			next, err := topology.SDSParallelCtx(ctx, sub, 0)
			if err != nil {
				return nil, 0, err
			}
			sub = next
		}
		m, ok, err := searchMap(ctx, sub, a, domainFor)
		if err != nil {
			return nil, 0, err
		}
		if ok {
			return m, k, nil
		}
	}
	return nil, 0, fmt.Errorf("%w (maxK=%d)", ErrNotFound, maxK)
}

// searchMap backtracks over vertex assignments from sub to a: each vertex is
// assigned within its domain (computed by domainFor) such that every simplex
// of sub maps to a simplex of a. The loop checks ctx cooperatively every
// cancelCheckInterval nodes, returning an error wrapping ctx.Err() when the
// caller has gone away.
func searchMap(ctx context.Context, sub, a *topology.Complex, domainFor func(*topology.Complex, topology.Vertex) []topology.Vertex) (*topology.SimplicialMap, bool, error) {
	nv := sub.NumVertices()

	domains := make([][]topology.Vertex, nv)
	for v := 0; v < nv; v++ {
		domains[v] = domainFor(sub, topology.Vertex(v))
		if len(domains[v]) == 0 {
			return nil, false, nil
		}
	}

	order := dfsOrder(sub, domains)
	pos := make([]int, nv)
	for p, v := range order {
		pos[v] = p
	}
	checks := make([][][]topology.Vertex, nv)
	for _, byDim := range sub.AllSimplices() {
		for _, s := range byDim {
			last := 0
			for _, v := range s {
				if pos[v] > last {
					last = pos[v]
				}
			}
			checks[last] = append(checks[last], s)
		}
	}

	assign := make([]topology.Vertex, nv)
	var nodes int64
	var dfs func(p int) (bool, error)
	dfs = func(p int) (bool, error) {
		if p == nv {
			return true, nil
		}
		v := order[p]
		for _, w := range domains[v] {
			nodes++
			if nodes&(cancelCheckInterval-1) == 0 {
				if cerr := ctx.Err(); cerr != nil {
					return false, fmt.Errorf("converge: search canceled: %w", cerr)
				}
			}
			assign[v] = w
			ok := true
			for _, s := range checks[p] {
				image := make([]topology.Vertex, 0, len(s))
				for _, u := range s {
					image = append(image, assign[u])
				}
				image = dedupe(image)
				if len(image) > 1 && !a.HasSimplex(image) {
					ok = false
					break
				}
			}
			if ok {
				found, err := dfs(p + 1)
				if found || err != nil {
					return found, err
				}
			}
		}
		return false, nil
	}
	found, err := dfs(0)
	if err != nil {
		return nil, false, err
	}
	if !found {
		return nil, false, nil
	}
	m := topology.NewSimplicialMap(sub, a)
	copy(m.Image, assign)
	return m, true, nil
}

func dedupe(vs []topology.Vertex) []topology.Vertex {
	slices.Sort(vs)
	return slices.Compact(vs)
}

// vertexSetSubset reports a ⊆ b for sorted vertex slices.
func vertexSetSubset(a, b []topology.Vertex) bool {
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

// dfsOrder mirrors the solver's depth-first most-constrained-first ordering.
func dfsOrder(sub *topology.Complex, domains [][]topology.Vertex) []topology.Vertex {
	nv := sub.NumVertices()
	adj := make([][]topology.Vertex, nv)
	all := sub.AllSimplices()
	if len(all) > 1 {
		for _, e := range all[1] {
			adj[e[0]] = append(adj[e[0]], e[1])
			adj[e[1]] = append(adj[e[1]], e[0])
		}
	}
	visited := make([]bool, nv)
	var order []topology.Vertex
	var rec func(v topology.Vertex)
	rec = func(v topology.Vertex) {
		visited[v] = true
		order = append(order, v)
		ns := append([]topology.Vertex(nil), adj[v]...)
		slices.SortFunc(ns, func(a, b topology.Vertex) int {
			if d := len(domains[a]) - len(domains[b]); d != 0 {
				return d
			}
			return int(a - b)
		})
		for _, u := range ns {
			if !visited[u] {
				rec(u)
			}
		}
	}
	for len(order) < nv {
		seed := -1
		for v := 0; v < nv; v++ {
			if !visited[v] && (seed < 0 || len(domains[v]) < len(domains[seed])) {
				seed = v
			}
		}
		rec(topology.Vertex(seed))
	}
	return order
}

// AgreementResult reports a distributed chromatic simplex agreement run.
type AgreementResult struct {
	Level   int               // IIS rounds executed (the k of the map)
	Outputs []topology.Vertex // decided vertex of A per process; -1 if crashed
}

// RunSimplexAgreement solves the paper's CSASS task for real: every process
// runs level rounds of the iterated immediate snapshot full-information
// protocol, locates its final view as a vertex of phi.From = SDS^level(sⁿ),
// and decides phi(view) ∈ A. phi must come from FindChromaticMap over the
// same base.
//
// The decided vertices always span a simplex W of A with each output's
// carrier inside the participating set — the CSASS specification — because
// views span a simplex of SDS^level, phi is simplicial, color preservation
// keeps one vertex per process, and carrier containment pins W's carrier.
func RunSimplexAgreement(phi *topology.SimplicialMap, level int, procs int, crashAfter []int) (*AgreementResult, error) {
	res, err := protocol.RunFullInfo(procs, level, crashAfter)
	if err != nil {
		return nil, err
	}
	out := &AgreementResult{Level: level, Outputs: make([]topology.Vertex, procs)}
	for i := range out.Outputs {
		out.Outputs[i] = -1
	}
	for i, key := range res.Keys {
		if key == "" {
			continue
		}
		v, ok := phi.From.VertexByKey(key)
		if !ok {
			return nil, fmt.Errorf("converge: P%d's view %q is not a vertex of SDS^%d", i, key, level)
		}
		out.Outputs[i] = phi.Image[v]
	}
	return out, nil
}

// ValidateAgreement checks the CSASS conditions on a run's outputs:
// the decided vertices span a simplex of a, each decider got its own color,
// and the simplex's carrier lies inside the participating set (given as base
// vertex ids of the processes that took at least one step).
func ValidateAgreement(a *topology.Complex, res *AgreementResult, participating []topology.Vertex) error {
	var w []topology.Vertex
	for i, v := range res.Outputs {
		if v < 0 {
			continue
		}
		if a.Color(v) != i {
			return fmt.Errorf("converge: P%d decided a vertex of color %d", i, a.Color(v))
		}
		w = append(w, v)
	}
	if len(w) == 0 {
		return nil
	}
	if !a.HasSimplex(dedupe(w)) {
		return fmt.Errorf("converge: outputs %v do not span a simplex", w)
	}
	carrier := a.CarrierOfSimplex(w)
	if !vertexSetSubset(carrier, sortedVerts(participating)) {
		return fmt.Errorf("converge: output carrier %v outside participating set %v", carrier, participating)
	}
	return nil
}

func sortedVerts(vs []topology.Vertex) []topology.Vertex {
	cp := append([]topology.Vertex(nil), vs...)
	slices.Sort(cp)
	return cp
}

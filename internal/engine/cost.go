package engine

import (
	"fmt"
	"math"

	"waitfree/internal/model"
	"waitfree/internal/sched"
	"waitfree/internal/solver"
)

// Cost estimation: the admission controller's closed-form model of how much
// work a query commits the engine to, measured in facets materialized —
// computed from the Lemma 3.3 recurrence without building any subdivision.
//
// Each m-vertex facet of a level-b complex subdivides into Fubini(m) facets
// at level b+1 (the lemma's facets(b) = Fubini(n+1)·facets(b−1) in closed
// form), so the chain a query walks materializes
//
//	Σ_{b=0}^{B} Σ_{facets f of I} Fubini(|f|)^b
//
// facets in total. That sum is the dominant memory and subdivision cost of
// solve/complex/converge queries, and — unlike the solver's backtracking
// node count — it is computable exactly, in microseconds, before admitting
// the query. The serving layer rejects estimates over its budget with 400
// (wrapping ErrOverBudget) before a worker slot is ever committed, the same
// way the emulation accounts for steps before granting them.

// CostUnbounded is returned when the estimate overflows int64 — by
// definition over any configurable budget.
const CostUnbounded = int64(math.MaxInt64)

// satAdd and satMul saturate at CostUnbounded instead of wrapping.
func satAdd(a, b int64) int64 {
	if a > CostUnbounded-b {
		return CostUnbounded
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > CostUnbounded/b {
		return CostUnbounded
	}
	return a * b
}

// chainCost is Σ_{b=0}^{maxLevel} facets·Fubini(m)^b: the total facet count
// of a subdivision chain whose base has `facets` facets of m vertices each.
func chainCost(facets int64, m, maxLevel int) int64 {
	return chainCostModel(facets, m, maxLevel, model.WaitFree())
}

// chainCostModel generalizes chainCost to restricted chains: an accepted
// facet keeps its full m vertices, so the per-level multiplier of R^b is
// constant — the count of model-allowed ordered partitions of an m-set,
// which for wait-free is exactly Fubini(m) via the same checked recurrence.
func chainCostModel(facets int64, m, maxLevel int, spec model.Spec) int64 {
	branch, err := spec.CountAllowedPartitions(m)
	if err != nil {
		return CostUnbounded
	}
	if branch == 1 { // every level repeats the base: no need to walk them
		return satMul(facets, satAdd(int64(maxLevel), 1))
	}
	var total, level int64 = 0, facets
	// Stop once the sum saturates, so a hostile level costs no loop either.
	for b := 0; b <= maxLevel && total < CostUnbounded; b++ {
		total = satAdd(total, level)
		level = satMul(level, int64(branch))
	}
	return total
}

// EstimateCost returns the facet-count estimate for a complex query: the
// chain over the standard n-simplex through level B.
func (r ComplexRequest) EstimateCost() (int64, error) {
	if r.N < 0 || r.B < 0 {
		return 0, fmt.Errorf("%w: n=%d b=%d must be non-negative", ErrInvalid, r.N, r.B)
	}
	return chainCost(1, r.N+1, r.B), nil
}

// EstimateCost returns the facet-count estimate for a converge query: the
// target chain through Target plus the domain chain through MaxK (the search
// walks every domain level up to MaxK).
func (r ConvergeRequest) EstimateCost() (int64, error) {
	if r.N < 0 || r.Target < 0 || r.MaxK < 0 {
		return 0, fmt.Errorf("%w: n=%d target=%d max_k=%d must be non-negative", ErrInvalid, r.N, r.Target, r.MaxK)
	}
	return satAdd(chainCost(1, r.N+1, r.Target), chainCost(1, r.N+1, r.MaxK)), nil
}

// EstimateCost returns the cost of an adversary replay: one emulated step
// per budgeted step per process. MaxSteps 0 runs sched.DefaultMaxSteps, so
// it is priced at that budget; a negative (unlimited) budget is unbounded.
func (r AdversaryRequest) EstimateCost() (int64, error) {
	steps := int64(r.MaxSteps)
	switch {
	case steps < 0:
		return CostUnbounded, nil
	case steps == 0:
		steps = sched.DefaultMaxSteps
	}
	return satMul(int64(r.Procs)+1, steps), nil
}

// recordSolve feeds one level's search result into the solver metrics.
// Called for every level the engine searches, including levels that ended
// in ErrBudget/ErrCanceled (their partial node counts are real work; res is
// non-nil even on error).
func (e *Engine) recordSolve(res *solver.Result) {
	if res == nil {
		return
	}
	e.metrics.Add("solver_nodes_total", res.Nodes)
	e.metrics.Add("solver_pruned_values_total", res.Stats.PrunedValues)
	e.metrics.Add("solver_components_total", int64(res.Stats.Components))
	e.metrics.Add("solver_collapsed_vertices_total", int64(res.Stats.CollapsedVertices))
	if res.Stats.CollapseFallback {
		e.metrics.Inc("solver_collapse_fallbacks_total")
	}
}

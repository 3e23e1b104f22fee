package engine

import (
	"fmt"

	"waitfree/internal/model"
	"waitfree/internal/tasks"
)

// SolveQuery is a solve request parsed and validated once, carrying what
// every later stage reads: its cache key and its admission cost. Admission,
// the degraded-mode check, cluster routing and SolvePrepared use these
// values instead of recomputing them. A query builds its task at most once,
// and only when the answer must be computed: the facts admission needs come
// from the engine's per-spec memo, so a cache hit builds nothing.
type SolveQuery struct {
	req   SolveRequest
	Key   string
	Cost  int64 // Lemma 3.3 facet estimate of the (restricted) chain
	model model.Spec
	task  *tasks.Task // set when preparing had to build it; else built on a miss
}

// specFacts is everything a solve hit needs to know about its task, short of
// the task itself: the content address of its spec, its colour count (for
// the model's range check) and its input facet sizes (for the cost).
type specFacts struct {
	hash   string
	colors int
	facets []int64 // facets[m] = input facets with m vertices
}

// PrepareSolve validates req and resolves its key and cost. The errors are
// Solve's, in the same order: level, node budget, task spec, model.
//
// The facts memo is keyed by the normalized spec and written only after
// validate accepted it, so it holds at most one entry per valid normalized
// spec — a finite set (Build caps procs, d and m), never a function of how
// many distinct or invalid requests arrive.
func (e *Engine) PrepareSolve(req SolveRequest) (*SolveQuery, error) {
	if req.MaxLevel < 0 || req.MaxLevel > MaxSolveLevel {
		return nil, fmt.Errorf("%w: max_level=%d out of range [0,%d]", ErrInvalid, req.MaxLevel, MaxSolveLevel)
	}
	if req.MaxNodes < 0 {
		return nil, fmt.Errorf("%w: max_nodes=%d must be non-negative", ErrInvalid, req.MaxNodes)
	}
	if err := req.Spec.validate(); err != nil {
		return nil, err
	}
	q := &SolveQuery{req: req}
	norm := req.Spec.normalized()
	var f *specFacts
	if v, ok := e.facts.Load(norm); ok {
		f = v.(*specFacts)
	} else {
		task, err := e.build(req.Spec)
		if err != nil {
			return nil, err
		}
		q.task = task
		f = &specFacts{hash: req.Spec.Hash(), colors: len(task.Inputs.Colors())}
		for _, facet := range task.Inputs.Facets() {
			for len(f.facets) <= len(facet) {
				f.facets = append(f.facets, 0)
			}
			f.facets[len(facet)]++
		}
		e.facts.Store(norm, f)
	}
	spec, err := model.Parse(req.Model)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if err := spec.Validate(f.colors); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	q.model = spec
	q.Key = solveKey(f.hash, req, spec)
	for m, n := range f.facets {
		if n > 0 {
			q.Cost = satAdd(q.Cost, chainCostModel(n, m, req.MaxLevel, spec))
		}
	}
	return q, nil
}

// build constructs a task, counting it under task_builds.
func (e *Engine) build(spec TaskSpec) (*tasks.Task, error) {
	e.metrics.Inc("task_builds")
	return spec.Build()
}

// FactsLen returns the number of specs in the facts memo.
func (e *Engine) FactsLen() int {
	n := 0
	e.facts.Range(func(any, any) bool { n++; return true })
	return n
}

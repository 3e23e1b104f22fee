package engine

import (
	"errors"
	"testing"
)

// TestFactsMemoBounded prepares a wide grid of raw specs, valid and not:
// the memo ends with exactly one entry per valid normalized spec — the 112
// specs Build accepts — and every rejection is the error Build gives.
func TestFactsMemoBounded(t *testing.T) {
	e := New(Options{})
	valid := map[TaskSpec]bool{}
	for _, fam := range append(Families(), "nonsense") {
		for procs := -1; procs <= 5; procs++ {
			for k := 0; k <= 5; k++ {
				for d := 0; d <= 33; d++ {
					for m := 0; m <= 9; m++ {
						spec := TaskSpec{Family: fam, Procs: procs, K: k, D: d, M: m}
						_, err := e.PrepareSolve(SolveRequest{Spec: spec})
						if err == nil {
							valid[spec.normalized()] = true
							continue
						}
						_, buildErr := spec.Build()
						if !errors.Is(err, ErrInvalid) || buildErr == nil || err.Error() != buildErr.Error() {
							t.Fatalf("%+v: PrepareSolve error %v, Build error %v", spec, err, buildErr)
						}
					}
				}
			}
		}
	}
	if len(valid) != 112 || e.FactsLen() != 112 {
		t.Fatalf("%d valid normalized specs, %d memo entries; want 112 of each", len(valid), e.FactsLen())
	}
	if b := e.Metrics().Counter("task_builds"); b != 112 {
		t.Fatalf("task_builds = %d, want one per memoised spec (112)", b)
	}
}

package engine

import (
	"context"
	"errors"
	"testing"

	"waitfree/internal/sched"
)

// TestComplexCostMatchesGoldenTable pins the estimator against the same
// Lemma 3.3 numbers the golden table pins: the estimate for SDS^b(sⁿ) is the
// total facet count of the whole chain, Σ Fubini(n+1)^k for k ≤ b.
func TestComplexCostMatchesGoldenTable(t *testing.T) {
	cases := []struct {
		n, b int
		want int64
	}{
		{0, 3, 4},      // Fubini(1)=1: 1+1+1+1
		{1, 2, 13},     // Fubini(2)=3: 1+3+9
		{2, 2, 183},    // Fubini(3)=13: 1+13+169
		{2, 3, 2380},   // + 13³ = 2197
		{3, 3, 427576}, // Fubini(4)=75: 1+75+5625+421875 — the query the motivation names
	}
	for _, tc := range cases {
		got, err := (ComplexRequest{N: tc.n, B: tc.b}).EstimateCost()
		if err != nil || got != tc.want {
			t.Errorf("EstimateCost(n=%d,b=%d) = %d, %v; want %d", tc.n, tc.b, got, err, tc.want)
		}
	}
}

// TestSolveCostTracksActualFacets: for a real task the estimate's deepest
// term equals the facet count the engine actually materializes — the
// closed form and the construction agree, which is what makes rejecting on
// the estimate sound.
func TestSolveCostTracksActualFacets(t *testing.T) {
	req := SolveRequest{Spec: TaskSpec{Family: "consensus", Procs: 2}, MaxLevel: 1}
	e := New(Options{})
	q, err := e.PrepareSolve(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// cost = Σ levels; the deepest level alone is cost − cost(maxLevel−1).
	shallow, err := e.PrepareSolve(SolveRequest{Spec: req.Spec, MaxLevel: 0})
	if err != nil {
		t.Fatal(err)
	}
	if deepest := q.Cost - shallow.Cost; deepest != int64(resp.SubdivisionFacets) {
		t.Errorf("estimate's deepest level = %d facets, engine materialized %d", deepest, resp.SubdivisionFacets)
	}
}

// TestCostInvalidSpec: estimation validates like the engine — an unknown
// family is ErrInvalid, never a panic or a zero estimate admitted for free.
func TestCostInvalidSpec(t *testing.T) {
	_, err := New(Options{}).PrepareSolve(SolveRequest{Spec: TaskSpec{Family: "nonsense"}, MaxLevel: 1})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("got %v, want ErrInvalid", err)
	}
	if _, err := (ComplexRequest{N: -1, B: 0}).EstimateCost(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("negative n: got %v, want ErrInvalid", err)
	}
}

// TestCostSaturates: absurd depths saturate at CostUnbounded instead of
// wrapping into a small (admissible!) number.
func TestCostSaturates(t *testing.T) {
	if got := chainCost(1, 9, 500); got != CostUnbounded {
		t.Fatalf("chainCost(1, 9, 500) = %d, want CostUnbounded", got)
	}
}

// TestAdversaryCostPricesTheRunBudget: a replay is priced at the budget it
// actually runs under. MaxSteps 0 runs sched.DefaultMaxSteps, so it costs
// as much as asking for that budget explicitly; an unlimited budget is
// unbounded.
func TestAdversaryCostPricesTheRunBudget(t *testing.T) {
	req := AdversaryRequest{Algo: "setconsensus", Adversary: "laggard", Procs: 3}
	def, err := req.EstimateCost()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(4 * sched.DefaultMaxSteps); def != want {
		t.Fatalf("MaxSteps 0: cost %d, want %d (4 × DefaultMaxSteps)", def, want)
	}
	req.MaxSteps = sched.DefaultMaxSteps
	if explicit, _ := req.EstimateCost(); explicit != def {
		t.Fatalf("explicit default budget costs %d, MaxSteps 0 costs %d", explicit, def)
	}
	req.MaxSteps = 20000
	if got, _ := req.EstimateCost(); got != 4*20000 {
		t.Fatalf("MaxSteps 20000: cost %d, want %d", got, 4*20000)
	}
	req.MaxSteps = -1
	if got, _ := req.EstimateCost(); got != CostUnbounded {
		t.Fatalf("unlimited budget: cost %d, want CostUnbounded", got)
	}
}

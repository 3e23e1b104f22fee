package engine

import (
	"context"
	"math/rand"
	"sync"
	"testing"
)

// benchReq is moderately expensive cold (two subdivision levels plus an
// exhaustive unsolvability proof) so the warm/cold ratio is meaningful.
var benchReq = SolveRequest{Spec: TaskSpec{Family: "consensus", Procs: 2}, MaxLevel: 2}

// BenchmarkEngineSolveCold measures a full computation: fresh engine per
// iteration, nothing cached.
func BenchmarkEngineSolveCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := New(Options{}).Solve(context.Background(), benchReq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSolveColdDeep is the heaviest class of the service's
// cold-solve benchmark: consensus procs=3 through b ≤ 3 on a fresh engine
// per op. Three subdivision levels of eight input triangles, each level
// decided by propagation alone, so the time is subdivision plus the
// solver's per-level set-up (domains, edge tables, AC-3).
func BenchmarkEngineSolveColdDeep(b *testing.B) {
	req := SolveRequest{Spec: TaskSpec{Family: "consensus", Procs: 3}, MaxLevel: 3}
	for i := 0; i < b.N; i++ {
		if _, err := New(Options{}).Solve(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSolveWarm measures a content-address hit: one engine,
// verdict cached before the timer starts.
func BenchmarkEngineSolveWarm(b *testing.B) {
	e := New(Options{})
	if _, err := e.Solve(context.Background(), benchReq); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Solve(context.Background(), benchReq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSolveConcurrent measures 8 clients hammering one engine
// with a mix of queries; after the first round everything is singleflight-
// deduped or cache-hit.
func BenchmarkEngineSolveConcurrent(b *testing.B) {
	e := New(Options{})
	reqs := []SolveRequest{
		benchReq,
		{Spec: TaskSpec{Family: "approx-agreement", D: 2}, MaxLevel: 2},
		{Spec: TaskSpec{Family: "set-consensus", Procs: 3, K: 2}, MaxLevel: 1},
		{Spec: TaskSpec{Family: "set-consensus", Procs: 3, K: 3}, MaxLevel: 0},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				if _, err := e.Solve(context.Background(), reqs[c%len(reqs)]); err != nil {
					b.Error(err)
				}
			}(c)
		}
		wg.Wait()
	}
}

// BenchmarkAdversaryStarvation replays the costliest class of the
// service's cluster-fresh workload: setconsensus under laggard at procs=4
// with a 20000-step budget. The laggard keeps one process running almost
// every step, so the time is the scheduler's per-step cost.
func BenchmarkAdversaryStarvation(b *testing.B) {
	req := AdversaryRequest{Algo: "setconsensus", Adversary: "laggard", Procs: 4, Seed: 1, MaxSteps: 20000}
	for i := 0; i < b.N; i++ {
		if _, err := RunAdversary(req); err != nil {
			b.Fatal(err)
		}
	}
}

// adversaryMix is a fixed seeded sample of the cluster-fresh draw space:
// every algo, the four adversaries that workload draws, procs 2–4, and a
// 20000-step budget.
func adversaryMix() []AdversaryRequest {
	rng := rand.New(rand.NewSource(15))
	advs := []string{"random", "round-robin", "laggard", "priority-inversion"}
	algos := AdversaryAlgos()
	reqs := make([]AdversaryRequest, 32)
	for i := range reqs {
		reqs[i] = AdversaryRequest{
			Algo:      algos[rng.Intn(len(algos))],
			Adversary: advs[rng.Intn(len(advs))],
			Procs:     2 + rng.Intn(3),
			Seed:      rng.Int63(),
			MaxSteps:  20000,
		}
	}
	return reqs
}

// BenchmarkAdversaryMix replays adversaryMix once per op.
func BenchmarkAdversaryMix(b *testing.B) {
	reqs := adversaryMix()
	for i := 0; i < b.N; i++ {
		for _, req := range reqs {
			if _, err := RunAdversary(req); err != nil {
				b.Fatal(err)
			}
		}
	}
}

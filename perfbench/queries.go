package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/url"
	"runtime"
	"strconv"
	"time"

	"waitfree/internal/engine"
	"waitfree/internal/topology"
)

// class is one distinct query: the URL the client sends, and the same
// question asked of a non-serving engine, whose JSON encoding is the
// reference every response body must equal byte for byte.
type class struct {
	name string
	path string
	ask  func(ctx context.Context, e *engine.Engine) (any, error)
	// spec is set for /v1/solve classes (engine.build_ms times its Build);
	// cx for /v1/complex classes (topology.invariants_ms).
	spec *engine.TaskSpec
	cx   *engine.ComplexRequest
}

func solveClass(name string, spec engine.TaskSpec, maxb int, model string) class {
	q := url.Values{}
	q.Set("family", spec.Family)
	if spec.Procs != 0 {
		q.Set("procs", strconv.Itoa(spec.Procs))
	}
	if spec.K != 0 {
		q.Set("k", strconv.Itoa(spec.K))
	}
	if spec.D != 0 {
		q.Set("d", strconv.Itoa(spec.D))
	}
	if spec.M != 0 {
		q.Set("m", strconv.Itoa(spec.M))
	}
	q.Set("maxb", strconv.Itoa(maxb))
	if model != "" {
		q.Set("model", model)
	}
	req := engine.SolveRequest{Spec: spec, MaxLevel: maxb, Model: model}
	return class{
		name: name,
		path: "/v1/solve?" + q.Encode(),
		ask:  func(ctx context.Context, e *engine.Engine) (any, error) { return e.Solve(ctx, req) },
		spec: &req.Spec,
	}
}

func complexClass(n, b int) class {
	req := engine.ComplexRequest{N: n, B: b}
	return class{
		name: fmt.Sprintf("complex n=%d b=%d", n, b),
		path: fmt.Sprintf("/v1/complex?b=%d&n=%d", b, n),
		ask:  func(ctx context.Context, e *engine.Engine) (any, error) { return e.ComplexInfo(ctx, req) },
		cx:   &req,
	}
}

func convergeClass(n, target, maxk int) class {
	req := engine.ConvergeRequest{N: n, Target: target, MaxK: maxk}
	return class{
		name: fmt.Sprintf("converge n=%d target=%d maxk=%d", n, target, maxk),
		path: fmt.Sprintf("/v1/converge?maxk=%d&n=%d&target=%d", maxk, n, target),
		ask:  func(ctx context.Context, e *engine.Engine) (any, error) { return e.Converge(ctx, req) },
	}
}

func adversaryClass(req engine.AdversaryRequest) class {
	return class{
		name: fmt.Sprintf("adversary %s/%s procs=%d", req.Algo, req.Adversary, req.Procs),
		path: adversaryPath(req),
		ask:  func(ctx context.Context, e *engine.Engine) (any, error) { return e.Adversary(ctx, req) },
	}
}

func adversaryPath(req engine.AdversaryRequest) string {
	q := url.Values{}
	q.Set("algo", req.Algo)
	q.Set("adversary", req.Adversary)
	q.Set("seed", strconv.FormatInt(req.Seed, 10))
	q.Set("procs", strconv.Itoa(req.Procs))
	if len(req.Crash) > 0 {
		q.Set("crash", engine.FormatCrashVector(req.Crash))
	}
	if req.MaxSteps != 0 {
		q.Set("maxsteps", strconv.Itoa(req.MaxSteps))
	}
	return "/v1/adversary?" + q.Encode()
}

// warmCatalogue is warm-hit's fixed query set: every solve family, a model
// variant, set-consensus at 3 and 4 processes, the deep approximate
// agreement chain, and complex, converge and adversary queries.
func warmCatalogue() []class {
	return []class{
		solveClass("identity procs=3 maxb=1", engine.TaskSpec{Family: "identity", Procs: 3}, 1, ""),
		solveClass("consensus procs=2 maxb=2", engine.TaskSpec{Family: "consensus", Procs: 2}, 2, ""),
		solveClass("consensus procs=3 maxb=3", engine.TaskSpec{Family: "consensus", Procs: 3}, 3, ""),
		solveClass("consensus procs=3 maxb=3 1-resilient", engine.TaskSpec{Family: "consensus", Procs: 3}, 3, "1-resilient"),
		solveClass("set-consensus procs=3 k=2 maxb=1", engine.TaskSpec{Family: "set-consensus", Procs: 3, K: 2}, 1, ""),
		solveClass("set-consensus procs=4 k=3 maxb=0", engine.TaskSpec{Family: "set-consensus", Procs: 4, K: 3}, 0, ""),
		solveClass("approx-agreement d=32 maxb=4", engine.TaskSpec{Family: "approx-agreement", D: 32}, 4, ""),
		solveClass("approx-agreement-n procs=3 d=2 maxb=2", engine.TaskSpec{Family: "approx-agreement-n", Procs: 3, D: 2}, 2, ""),
		solveClass("renaming procs=2 m=3 maxb=2", engine.TaskSpec{Family: "renaming", Procs: 2, M: 3}, 2, ""),
		solveClass("wsb procs=2 maxb=2", engine.TaskSpec{Family: "wsb", Procs: 2}, 2, ""),
		complexClass(2, 2),
		complexClass(1, 3),
		convergeClass(1, 1, 2),
		convergeClass(2, 2, 4),
		adversaryClass(engine.AdversaryRequest{Algo: "commitadopt", Adversary: "random", Seed: 42, Procs: 3, Crash: []int{2, -1, -1}}),
		adversaryClass(engine.AdversaryRequest{Algo: "renaming", Adversary: "round-robin", Seed: 7, Procs: 3}),
	}
}

// coldClasses is cold-solve's round: nine query classes whose cold
// in-engine times spread from ~2 ms to ~175 ms, so the solver, the
// subdivision and the converge search all carry real weight. An odd count
// puts the median inside a class rather than between two.
func coldClasses() []class {
	return []class{
		solveClass("consensus procs=3 maxb=3", engine.TaskSpec{Family: "consensus", Procs: 3}, 3, ""),
		solveClass("consensus procs=3 maxb=3 1-resilient", engine.TaskSpec{Family: "consensus", Procs: 3}, 3, "1-resilient"),
		solveClass("consensus procs=4 maxb=1", engine.TaskSpec{Family: "consensus", Procs: 4}, 1, ""),
		solveClass("set-consensus procs=3 k=2 maxb=1", engine.TaskSpec{Family: "set-consensus", Procs: 3, K: 2}, 1, ""),
		solveClass("approx-agreement d=32 maxb=4", engine.TaskSpec{Family: "approx-agreement", D: 32}, 4, ""),
		solveClass("approx-agreement-n procs=3 d=4 maxb=3", engine.TaskSpec{Family: "approx-agreement-n", Procs: 3, D: 4}, 3, ""),
		complexClass(2, 3),
		convergeClass(2, 2, 4),
		solveClass("approx-agreement-n procs=3 d=2 maxb=2", engine.TaskSpec{Family: "approx-agreement-n", Procs: 3, D: 2}, 2, ""),
	}
}

// Cluster-fresh draws adversary replays from this space; maxSteps keeps the
// setconsensus starvation schedules at tens of milliseconds.
var (
	freshAlgos       = engine.AdversaryAlgos()
	freshAdversaries = []string{"random", "round-robin", "laggard", "priority-inversion"}
	freshProcs       = []int{2, 3, 4}
)

const freshMaxSteps = 20000

// stream is one client's seeded request sequence. Only the generator turns
// the workload seed into URLs; the program sees nothing else.
type stream struct {
	rng *rand.Rand
}

func newStream(seed int64, client int) *stream {
	return &stream{rng: rand.New(rand.NewPCG(uint64(seed), uint64(client)+1))}
}

// pick draws a uniform index in [0, n).
func (s *stream) pick(n int) int { return s.rng.IntN(n) }

// shuffle returns a seeded permutation of [0, n).
func (s *stream) shuffle(n int) []int { return s.rng.Perm(n) }

// draw is one cluster-fresh replay in compact form: indexes into the
// draw space and a 63-bit replay seed.
type draw struct {
	algo, adv, procs int8
	seed             int64
}

func (d draw) request() engine.AdversaryRequest {
	return engine.AdversaryRequest{
		Algo:      freshAlgos[d.algo],
		Adversary: freshAdversaries[d.adv],
		Procs:     freshProcs[d.procs],
		Seed:      d.seed,
		MaxSteps:  freshMaxSteps,
	}
}

// freshAt draws the node (of size) a cluster-fresh request goes to, then
// a never-seen replay: algo, adversary and process count uniformly, and a
// fresh 63-bit seed.
func (s *stream) freshAt(size int) (int, draw) {
	at := s.rng.IntN(size)
	return at, draw{
		algo:  int8(s.rng.IntN(len(freshAlgos))),
		adv:   int8(s.rng.IntN(len(freshAdversaries))),
		procs: int8(s.rng.IntN(len(freshProcs))),
		seed:  s.rng.Int64(),
	}
}

// references answers every class on a separate, non-serving engine and
// encodes it with the service's own encoder: the bytes `wfrepro … -json`
// prints, which every 200 body must equal.
func references(classes []class) (want [][]byte, vals []any, err error) {
	eng := engine.New(engine.Options{})
	for _, c := range classes {
		v, err := c.ask(context.Background(), eng)
		if err != nil {
			return nil, nil, fmt.Errorf("reference for %s: %w", c.name, err)
		}
		b, err := engine.EncodeJSON(v)
		if err != nil {
			return nil, nil, fmt.Errorf("encoding reference for %s: %w", c.name, err)
		}
		want, vals = append(want, b), append(vals, v)
	}
	return want, vals, nil
}

// warm sends every class once to n and checks the bytes.
func warm(n *node, classes []class, want [][]byte) error {
	c := newClient()
	defer c.close()
	for i, cl := range classes {
		var r rec
		r.accept(c.get(n.base+cl.path), want[i])
		if !r.ok {
			return fmt.Errorf("warm-up of %s: wrong answer", cl.name)
		}
	}
	return nil
}

// classCost is what the benchmark times itself, per class, for the layers
// that have no span: the response encode that runs after the root span
// closes, one TaskSpec.Build, and the invariants a complex answer computes.
type classCost struct {
	encodeMs, buildMs, invariantsMs float64
}

func timeMedianMs(reps int, f func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		f()
		xs[i] = ms(time.Since(t0))
	}
	return median(xs)
}

func timeClasses(classes []class, vals []any) []classCost {
	out := make([]classCost, len(classes))
	for i, c := range classes {
		out[i].encodeMs = timeMedianMs(101, func() { engine.EncodeJSON(vals[i]) })
		if c.spec != nil {
			out[i].buildMs = timeMedianMs(101, func() { c.spec.Build() })
		}
		if c.cx != nil {
			xs := make([]float64, 5)
			for r := range xs {
				sub := topology.Simplex(c.cx.N)
				for b := 0; b < c.cx.B; b++ {
					sub, _ = topology.SDSParallelCtx(context.Background(), sub, runtime.NumCPU())
				}
				t0 := time.Now()
				sub.CanonicalHash()
				sub.FVector()
				sub.EulerCharacteristic()
				xs[r] = ms(time.Since(t0))
			}
			out[i].invariantsMs = median(xs)
		}
	}
	return out
}

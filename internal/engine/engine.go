package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"waitfree/internal/converge"
	"waitfree/internal/faultfs"
	"waitfree/internal/model"
	"waitfree/internal/obs"
	"waitfree/internal/solver"
	"waitfree/internal/topology"
)

// DefaultCacheSize is the default in-memory entry bound of the store.
const DefaultCacheSize = 512

// DefaultMaxNodes is the engine's per-level search budget — deliberately
// tighter than the solver library default so a hostile query cannot pin a
// serving process for minutes.
const DefaultMaxNodes = 5_000_000

// Options configures an Engine.
type Options struct {
	// CacheSize bounds the in-memory store (entries); 0 = DefaultCacheSize.
	CacheSize int
	// SpillDir, when set, enables the gob spill-to-disk tier for evicted
	// artifacts (subdivisions, verdicts, convergence maps, replays).
	SpillDir string
	// SpillMaxBytes bounds the spill directory's total size; old files are
	// swept oldest-first past the budget. 0 = DefaultSpillMaxBytes.
	SpillMaxBytes int64
	// SpillFS is the filesystem the spill tier talks to; nil = the real one.
	// The chaos soak (and the dev-only -faultseed flag) pass a seeded
	// faultfs.Faulty here to run the storage adversary against a live engine.
	SpillFS faultfs.FS
	// Workers bounds subdivision/solver parallelism; 0 = runtime.NumCPU().
	Workers int
	// MaxNodes is the default per-level solver budget for requests that do
	// not set one; 0 = DefaultMaxNodes.
	MaxNodes int64
}

// Engine is the concurrent query engine. All methods are safe for
// concurrent use; identical in-flight queries are deduplicated so they cost
// one computation, and every derived artifact is content-addressed in the
// store for reuse across queries.
//
// Every query method takes a context and honors it end-to-end: the solver's
// backtracking loop, the parallel subdivision, and the converge search all
// checkpoint cooperatively, so a canceled or timed-out caller stops burning
// CPU within one checkpoint interval. Cancellation surfaces as ErrCanceled;
// abandoned partial work is never cached as a verdict.
type Engine struct {
	cache    *Cache
	flights  flightGroup
	workers  int
	maxNodes int64
	metrics  *Metrics
	// facts memoises, per normalized valid TaskSpec, the specFacts a solve
	// needs before it knows whether it will compute (query.go).
	facts sync.Map
	// peerFill, when set (SetPeerFiller, cluster mode), is consulted on a
	// cache miss before computing: a non-owned key may already be answered
	// byte-identically in the owning peer's cache.
	peerFill PeerFiller
}

// New builds an engine.
func New(o Options) *Engine {
	m := NewMetrics()
	e := &Engine{
		cache:    NewCache(o.CacheSize, o.SpillDir, o.SpillMaxBytes, o.SpillFS, m),
		workers:  o.Workers,
		maxNodes: o.MaxNodes,
		metrics:  m,
	}
	if e.workers <= 0 {
		e.workers = runtime.NumCPU()
	}
	if e.maxNodes == 0 {
		e.maxNodes = DefaultMaxNodes
	}
	// Spill codecs: subdivisions rehydrate as live complexes; response
	// artifacts rehydrate as themselves.
	e.cache.registerCodec("sds",
		func(v any) ([]byte, error) { return EncodeComplexGob(v.(*topology.Complex)) },
		func(data []byte) (any, error) { return DecodeComplexGob(data) })
	e.cache.registerCodec("solve",
		func(v any) ([]byte, error) { return gobEncode(v.(*SolveResponse)) },
		func(data []byte) (any, error) { var r SolveResponse; err := gobDecode(data, &r); return &r, err })
	e.cache.registerCodec("cx",
		func(v any) ([]byte, error) { return gobEncode(v.(*ComplexResponse)) },
		func(data []byte) (any, error) { var r ComplexResponse; err := gobDecode(data, &r); return &r, err })
	e.cache.registerCodec("conv",
		func(v any) ([]byte, error) { return gobEncode(v.(*ConvergeResponse)) },
		func(data []byte) (any, error) { var r ConvergeResponse; err := gobDecode(data, &r); return &r, err })
	e.cache.registerCodec("adv",
		func(v any) ([]byte, error) { return gobEncode(v.(*AdversaryResponse)) },
		func(data []byte) (any, error) { var r AdversaryResponse; err := gobDecode(data, &r); return &r, err })
	return e
}

// Metrics exposes the engine's counters (shared with the serving layer).
func (e *Engine) Metrics() *Metrics { return e.metrics }

// CacheLen returns the number of in-memory cache entries.
func (e *Engine) CacheLen() int { return e.cache.Len() }

// HasCached reports whether the store (memory or disk tier) already holds an
// answer for the given request key. The serving layer uses it in degraded
// mode: a cache hit is always admissible because answering it costs no
// computation and no spill write. A disk-tier hit rehydrates the entry, so a
// positive answer means the follow-up query is a memory hit.
func (e *Engine) HasCached(key string) bool {
	_, ok := e.cache.Get(key)
	return ok
}

// canceledErr counts (at whole-query granularity) and wraps a cancellation
// so callers can errors.Is(err, ErrCanceled) regardless of which layer the
// context error surfaced from.
func (e *Engine) canceledErr(topLevel bool, err error) error {
	if topLevel {
		e.metrics.Canceled.Add(1)
	}
	if errors.Is(err, ErrCanceled) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrCanceled, err)
}

// do is the query spine: cache lookup, singleflight dedup of concurrent
// misses, compute, store. CacheHits/CacheMisses are counted at whole-query
// granularity — only top-level client queries bump them; internal artifact
// lookups (the sds: chain a solve walks) count under "<op>_hit"/"<op>_miss"
// named counters so N clients asking one question read as exactly one miss.
// op names the latency histogram; successful queries observe into the "op"
// histogram, failed ones (cancellations included — a canceled search's
// partial latency would poison the success percentiles) into "op_error".
//
// When ctx carries an obs trace, the spine emits a cache.lookup span (with
// the answering tier) and, on a miss, a flight.wait span around the
// singleflight; the compute runs under the flight's Background-rooted
// context with the starter's trace transplanted onto it, so the deeper
// sds.subdivide / solver.search / converge.map spans land in the starter's
// tree while shared subscribers see only their flight.wait.
//
// ctx is the caller's; compute receives the flight's context, which stays
// live while any subscriber remains and is canceled once all have
// detached, so abandoned searches stop instead of running out their node
// budgets. Errors — including a detaching caller's own ctx.Err() — are
// never cached.
func (e *Engine) do(ctx context.Context, op, key string, topLevel bool, compute func(ctx context.Context) (any, error)) (any, error) {
	e.metrics.InFlight.Add(1)
	start := time.Now()
	v, err := e.doInner(ctx, op, key, topLevel, compute)
	e.metrics.InFlight.Add(-1)
	if err != nil {
		e.metrics.Observe(op+"_error", time.Since(start))
	} else {
		e.metrics.Observe(op, time.Since(start))
	}
	return v, err
}

func (e *Engine) doInner(ctx context.Context, op, key string, topLevel bool, compute func(ctx context.Context) (any, error)) (any, error) {
	hit := func(tier string) {
		if topLevel {
			e.metrics.CacheHits.Add(1)
		} else {
			e.metrics.Inc(op + "_hit")
		}
		if tier == TierDisk {
			e.metrics.Inc(op + "_disk_hit")
		}
	}
	_, lookup := obs.StartSpan(ctx, "cache.lookup")
	lookup.SetStr("op", op)
	if v, tier, ok := e.cache.GetTier(key); ok {
		lookup.SetStr("tier", tier)
		lookup.SetInt("hit", 1)
		lookup.Finish()
		hit(tier)
		return v, nil
	}
	lookup.SetStr("tier", TierMiss)
	lookup.SetInt("hit", 0)
	lookup.Finish()
	if err := ctx.Err(); err != nil {
		return nil, e.canceledErr(topLevel, err)
	}
	wctx, wait := obs.StartSpan(ctx, "flight.wait")
	wait.SetStr("op", op)
	v, err, shared := e.flights.Do(ctx, key, func(cctx context.Context) (any, error) {
		cctx = obs.Transplant(wctx, cctx)
		if v, tier, ok := e.cache.GetTier(key); ok {
			hit(tier)
			return v, nil
		}
		if topLevel {
			e.metrics.CacheMisses.Add(1)
		} else {
			e.metrics.Inc(op + "_miss")
		}
		// Peer cache-fill: before computing a missed key, try fetching the
		// finished artifact from its ring owner. Inside the flight, so all
		// local waiters share one fetch; any failure falls through to
		// compute.
		if v, ok := e.tryPeerFill(cctx, op, key); ok {
			return v, nil
		}
		v, err := compute(cctx)
		if err != nil {
			return nil, err
		}
		e.cache.Put(key, v)
		return v, nil
	})
	wait.SetInt("shared", boolInt(shared))
	wait.Finish()
	if shared {
		e.metrics.Deduped.Add(1)
	}
	if err != nil && isCancellation(err) {
		return nil, e.canceledErr(topLevel, err)
	}
	return v, err
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// sdsLevel returns SDS^b(base) through the content-addressed store,
// building missing levels one parallel subdivision at a time on top of the
// deepest cached level. baseHash is hash(base.CanonicalString()), so two
// tasks over equal input complexes share the whole chain.
func (e *Engine) sdsLevel(ctx context.Context, base *topology.Complex, baseHash string, b int) (*topology.Complex, error) {
	return e.modelLevel(ctx, base, baseHash, b, model.WaitFree())
}

// modelLevel returns R^b(base) for an affine model — the restricted
// subdivision chain, cached level-by-level like the wait-free one. For the
// wait-free model the key is the pre-model "sds:…" key and the filter is
// nil, so the chain is the identical cached object, not a lookalike.
// Restriction runs in the same compute step as the subdivision that built
// the level, while the arena provenance (ordered-partition block sizes) is
// live; cached restricted levels rehydrate as explicit complexes and are
// only ever inputs to the next subdivision, never to another restriction.
func (e *Engine) modelLevel(ctx context.Context, base *topology.Complex, baseHash string, b int, spec model.Spec) (*topology.Complex, error) {
	if b == 0 {
		return base, nil
	}
	key := fmt.Sprintf("sds:%s:b=%d", baseHash, b)
	if !spec.IsWaitFree() {
		key += ":model=" + spec.Canonical()
	}
	filter := spec.Filter()
	v, err := e.do(ctx, "sds", key, false, func(cctx context.Context) (any, error) {
		prev, err := e.modelLevel(cctx, base, baseHash, b-1, spec)
		if err != nil {
			return nil, err
		}
		sub, err := topology.SDSParallelCtx(cctx, prev, e.workers)
		if err != nil {
			return nil, err
		}
		if filter == nil {
			return sub, nil
		}
		return topology.RestrictSDS(sub, filter)
	})
	if err != nil {
		return nil, err
	}
	return v.(*topology.Complex), nil
}

// Solve answers a solvability query, reusing cached subdivision levels and
// verdicts. It is PrepareSolve followed by SolvePrepared.
func (e *Engine) Solve(ctx context.Context, req SolveRequest) (*SolveResponse, error) {
	q, err := e.PrepareSolve(req)
	if err != nil {
		return nil, err
	}
	return e.SolvePrepared(ctx, q)
}

// SolvePrepared answers a query PrepareSolve returned.
func (e *Engine) SolvePrepared(ctx context.Context, q *SolveQuery) (*SolveResponse, error) {
	e.metrics.Inc("solve_model_" + metricName(q.model))
	v, err := e.do(ctx, "solve", q.Key, true, func(cctx context.Context) (any, error) { return e.computeSolve(cctx, q) })
	if err != nil {
		return nil, err
	}
	return v.(*SolveResponse), nil
}

// metricName renders a model spec as a counter-name segment ("wait_free",
// "1_resilient", …).
func metricName(spec model.Spec) string {
	out := []byte(spec.Canonical())
	for i, c := range out {
		if c == '-' {
			out[i] = '_'
		}
	}
	return string(out)
}

func (e *Engine) computeSolve(ctx context.Context, q *SolveQuery) (*SolveResponse, error) {
	req, spec, task := q.req, q.model, q.task
	if task == nil { // the spec's facts were memoised: build on this miss only
		var err error
		if task, err = e.build(req.Spec); err != nil {
			return nil, err
		}
	}
	maxNodes := req.MaxNodes
	if maxNodes == 0 {
		maxNodes = e.maxNodes
	}
	opts := solver.Options{MaxNodes: maxNodes, Workers: e.workers}
	if !spec.IsWaitFree() {
		opts.Model = spec.Canonical()
	}
	baseHash := task.Inputs.CanonicalHash()
	var last *solver.Result
	for b := 0; b <= req.MaxLevel; b++ {
		sub, err := e.modelLevel(ctx, task.Inputs, baseHash, b, spec)
		if err != nil {
			return nil, err
		}
		res, err := solver.SolveAtLevelOn(ctx, task, b, sub, opts)
		e.recordSolve(res)
		if err != nil {
			return nil, err // solver.ErrBudget or solver.ErrCanceled, wrapped with level and node count
		}
		if res.Solvable {
			if err := solver.VerifyDecisionMap(task, res); err != nil {
				return nil, fmt.Errorf("engine: found map fails verification: %w", err)
			}
			return solveResponse(req, spec, res, true), nil
		}
		last = res
	}
	return solveResponse(req, spec, last, false), nil
}

func solveResponse(req SolveRequest, spec model.Spec, res *solver.Result, verified bool) *SolveResponse {
	resp := &SolveResponse{
		Task:        res.Task.Name,
		Spec:        req.Spec,
		MaxLevel:    req.MaxLevel,
		Level:       res.Level,
		Solvable:    res.Solvable,
		Nodes:       res.Nodes,
		MapVerified: verified && res.Solvable,
	}
	if !spec.IsWaitFree() {
		resp.Model = spec.Canonical()
	}
	if res.Subdivision != nil {
		resp.SubdivisionVertices = res.Subdivision.NumVertices()
		resp.SubdivisionFacets = len(res.Subdivision.Facets())
	}
	if res.Solvable {
		resp.Verdict = fmt.Sprintf("SOLVABLE at b = %d", res.Level)
	} else {
		resp.Verdict = fmt.Sprintf("UNSOLVABLE for all b ≤ %d (proven by exhaustion)", res.Level)
	}
	return resp
}

// ComplexInfo answers a subdivision-shape query over the standard simplex.
func (e *Engine) ComplexInfo(ctx context.Context, req ComplexRequest) (*ComplexResponse, error) {
	if req.N < 0 || req.N > 3 || req.B < 0 || req.B > 3 || (req.N >= 3 && req.B >= 2) {
		return nil, fmt.Errorf("%w: complex enumeration is exponential; need 0 ≤ n ≤ 3, 0 ≤ b ≤ 3, n·b small", ErrInvalid)
	}
	v, err := e.do(ctx, "complex", req.Key(), true, func(cctx context.Context) (any, error) {
		base := topology.Simplex(req.N)
		sub, err := e.sdsLevel(cctx, base, base.CanonicalHash(), req.B)
		if err != nil {
			return nil, err
		}
		fv := sub.FVector()
		return &ComplexResponse{
			N:         req.N,
			B:         req.B,
			Vertices:  sub.NumVertices(),
			Facets:    len(sub.Facets()),
			FVector:   fv,
			Euler:     topology.EulerOfFVector(fv),
			Chromatic: sub.IsChromatic(),
			Pure:      sub.IsPure(),
			Hash:      sub.CanonicalHash(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*ComplexResponse), nil
}

// Converge answers a Theorem 5.1 query: the smallest k ≤ MaxK with a color-
// and carrier-preserving simplicial map SDS^k(sⁿ) → SDS^target(sⁿ).
func (e *Engine) Converge(ctx context.Context, req ConvergeRequest) (*ConvergeResponse, error) {
	if req.N < 1 || req.N > 2 {
		return nil, fmt.Errorf("%w: converge needs 1 ≤ n ≤ 2, got %d", ErrInvalid, req.N)
	}
	if req.Target < 1 || req.Target > 2 {
		return nil, fmt.Errorf("%w: converge needs 1 ≤ target ≤ 2, got %d", ErrInvalid, req.Target)
	}
	if req.MaxK < 0 || req.MaxK > 4 {
		return nil, fmt.Errorf("%w: converge needs 0 ≤ max_k ≤ 4, got %d", ErrInvalid, req.MaxK)
	}
	v, err := e.do(ctx, "converge", req.Key(), true, func(cctx context.Context) (any, error) {
		base := topology.Simplex(req.N)
		a, err := e.sdsLevel(cctx, base, base.CanonicalHash(), req.Target)
		if err != nil {
			return nil, err
		}
		// The cached chain's base is its own Simplex instance; FindChromaticMap
		// compares base pointers, so converge against that instance.
		phi, k, err := converge.FindChromaticMapCtx(cctx, a.Base(), a, req.MaxK)
		if err != nil {
			return nil, err
		}
		return &ConvergeResponse{
			N:                 req.N,
			Target:            req.Target,
			MaxK:              req.MaxK,
			K:                 k,
			Simplicial:        phi.Validate() == nil,
			ColorPreserving:   phi.ColorPreserving(),
			CarrierRespecting: phi.CarrierRespecting(),
			DomainVertices:    phi.From.NumVertices(),
			TargetVertices:    phi.To.NumVertices(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*ConvergeResponse), nil
}

// Adversary replays a deterministic schedule (cached — the replay is a pure
// function of the request).
func (e *Engine) Adversary(ctx context.Context, req AdversaryRequest) (*AdversaryResponse, error) {
	v, err := e.do(ctx, "adversary", req.Key(), true, func(cctx context.Context) (any, error) {
		if err := cctx.Err(); err != nil {
			return nil, err
		}
		return RunAdversary(req)
	})
	if err != nil {
		return nil, err
	}
	return v.(*AdversaryResponse), nil
}

// Package serve is the HTTP layer over the engine: a stdlib-only JSON API
// exposing the solvability checker, subdivision enumerator, Theorem 5.1
// convergence search, and deterministic adversary replays, plus health and
// metrics endpoints. All handlers are GET with query parameters, so every
// query is a curl-able, cache-addressable URL.
//
//	GET /v1/solve?family=consensus&procs=2&maxb=2
//	GET /v1/complex?n=2&b=1
//	GET /v1/converge?n=1&target=1&maxk=2
//	GET /v1/adversary?algo=commitadopt&adversary=random&seed=42&procs=3&crash=2,-1,-1
//	GET /v1/peer/artifact/{key}     (cluster mode: peers fetch finished artifacts)
//	GET /healthz
//	GET /metrics
//	GET /debug/traces[?id=<trace-id>]
//	GET /debug/pprof/*          (behind Options.EnablePprof)
//
// Every /v1/* response carries an X-Trace-Id header; the corresponding span
// tree (cache.lookup, flight.wait, sds.subdivide, solver.search,
// converge.map — see DESIGN §10) is retrievable from /debug/traces while it
// remains in the bounded registry.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"waitfree/internal/cluster"
	"waitfree/internal/engine"
	"waitfree/internal/netfault"
	"waitfree/internal/obs"
	"waitfree/internal/sched"
	"waitfree/internal/solver"
)

// Options configures a Server.
type Options struct {
	// MaxConcurrent bounds in-flight requests; excess callers queue (briefly)
	// and are rejected with 503 once the queue is full. 0 = 2×MaxConcurrent
	// default of 32.
	MaxConcurrent int
	// Timeout is the per-request deadline; 0 = 30s.
	Timeout time.Duration
	// SlowLog, when > 0, logs any /v1/* request slower than this threshold
	// via Logger, together with the exact wfrepro CLI line that reproduces
	// the query offline.
	SlowLog time.Duration
	// Logger receives slow-query records; nil = slog.Default().
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiles expose internals and cost CPU, so production turns it on
	// deliberately via the -pprof flag.
	EnablePprof bool
	// TraceBuffer bounds the /debug/traces registry; 0 = obs default (256).
	TraceBuffer int
	// MaxCost is the admission budget in Lemma 3.3 facets: a query whose
	// closed-form estimate exceeds it is rejected 400 with the estimate in
	// the body, before a worker slot is committed. 0 = unlimited.
	MaxCost int64
	// DegradedMaxCost is the (much tighter) budget applied while the breaker
	// is tripped: only cache hits and queries at or under it are served;
	// everything else is rejected 503 + Retry-After. 0 = the default;
	// negative = cache hits only.
	DegradedMaxCost int64
	// Breaker configures the failure-rate breaker behind degraded mode.
	Breaker BreakerOptions
	// Cluster, when set, makes this server a shard of a hash-ring cluster:
	// non-owned keys are peer-filled or forwarded one hop to their owner,
	// the /v1/peer/* endpoints (artifact, gossip, probe, keys) serve peers,
	// and /healthz gains a cluster section. Nil = single-node mode, no change.
	Cluster *cluster.Cluster
	// NetFault, when set, mounts the dev-only /debug/netfault control
	// surface for the deterministic network adversary (set/heal partitions,
	// pause the fault plan, read the injection state). Nil in production.
	NetFault *netfault.Transport
}

// DefaultMaxConcurrent is the default in-flight request bound.
const DefaultMaxConcurrent = 32

// DefaultTimeout is the default per-request deadline.
const DefaultTimeout = 30 * time.Second

// DefaultDegradedMaxCost is the degraded-mode admission budget: generous
// enough for every interactive-sized query (the (2,2) chain is 183 facets,
// (2,3) is 2380), tight enough to shed the 400k-facet class that turns a
// sick spill tier into a memory amplifier.
const DefaultDegradedMaxCost = int64(100_000)

// ErrDegraded marks queries shed in degraded mode: the breaker tripped on
// spill faults or sustained 5xx, and this query is neither cached nor under
// the degraded cost budget. Mapped to 503 + Retry-After — the query is fine,
// the server is not; retry after the cooldown.
var ErrDegraded = errors.New("serve: degraded mode, expensive uncached queries refused")

// Server routes HTTP requests into an engine.
type Server struct {
	eng      *engine.Engine
	sem      chan struct{}
	timeout  time.Duration
	slow     time.Duration
	logger   *slog.Logger
	pprofOn  bool
	traces   *obs.Registry
	maxCost  int64
	degCost  int64
	breaker  *breaker
	cluster  *cluster.Cluster    // nil in single-node mode
	netfault *netfault.Transport // nil unless the adversary is armed
	spillSum atomic.Int64        // last observed SpillFaults(), for delta polling
}

// NewServer builds a Server over eng.
func NewServer(eng *engine.Engine, o Options) *Server {
	maxConc := o.MaxConcurrent
	if maxConc <= 0 {
		maxConc = DefaultMaxConcurrent
	}
	timeout := o.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	logger := o.Logger
	if logger == nil {
		logger = slog.Default()
	}
	degCost := o.DegradedMaxCost
	if degCost == 0 {
		degCost = DefaultDegradedMaxCost
	}
	return &Server{
		eng:      eng,
		sem:      make(chan struct{}, maxConc),
		timeout:  timeout,
		slow:     o.SlowLog,
		logger:   logger,
		pprofOn:  o.EnablePprof,
		traces:   obs.NewRegistry(o.TraceBuffer),
		maxCost:  o.MaxCost,
		degCost:  degCost,
		breaker:  newBreaker(o.Breaker),
		cluster:  o.Cluster,
		netfault: o.NetFault,
	}
}

// Engine exposes the underlying engine (tests, metrics wiring).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Traces exposes the trace registry (tests, CLI wiring).
func (s *Server) Traces() *obs.Registry { return s.traces }

// Handler returns the full route table wrapped in the concurrency limiter
// and the per-request timeout.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/v1/complex", s.handleComplex)
	mux.HandleFunc("/v1/converge", s.handleConverge)
	mux.HandleFunc("/v1/adversary", s.handleAdversary)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	if s.cluster != nil {
		mux.HandleFunc("GET /v1/peer/artifact/{key}", s.handlePeerArtifact)
		mux.HandleFunc("POST "+cluster.GossipPath, s.handleGossip)
		mux.HandleFunc("GET "+cluster.ProbePath, s.handlePeerProbe)
		mux.HandleFunc("GET "+cluster.KeysPath, s.handlePeerKeys)
	}
	if s.netfault != nil {
		mux.HandleFunc("/debug/netfault", s.handleNetfault)
	}
	mux.HandleFunc("/debug/traces", s.handleTraces)
	if s.pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	inner := http.TimeoutHandler(s.limit(mux), s.timeout, `{"error":"request timed out"}`)
	// The Retry-After wrapper sits OUTSIDE TimeoutHandler on purpose:
	// TimeoutHandler buffers its child's response and writes its own 503
	// directly to the writer it was given, so a header set from inside the
	// handler would be discarded on the timeout path. Intercepting
	// WriteHeader out here covers every 503 — capacity, deadline, and
	// degraded-mode rejections — with one mechanism.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(&retryAfterWriter{ResponseWriter: w, s: s}, r)
	})
}

// retryAfterWriter injects a Retry-After header on every 503 and 429
// passing through, derived from live load (see retryAfterSeconds). Both are
// "come back later" statuses: 503 means the server is sick or gave up, 429
// means the concurrency gate shed the caller; either way the honest hint is
// the same queue-and-cooldown estimate.
type retryAfterWriter struct {
	http.ResponseWriter
	s *Server
}

func (w *retryAfterWriter) WriteHeader(code int) {
	if code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(w.s.retryAfterSeconds()))
	}
	w.ResponseWriter.WriteHeader(code)
}

// retryAfterSeconds estimates when a retry is worth attempting: the queue
// ahead of the caller times the recent p50 service time, or the breaker's
// remaining cooldown when degraded mode is what rejected the request —
// whichever is later, clamped to [1, 60] seconds.
func (s *Server) retryAfterSeconds() int {
	m := s.eng.Metrics()
	p50 := m.MaxQuantile("http_", 0.5) // milliseconds
	sec := int(math.Ceil(float64(m.QueueDepth.Load()+1) * p50 / 1000))
	if rem := s.breaker.CooldownRemaining(); rem > 0 {
		if c := int(math.Ceil(rem.Seconds())); c > sec {
			sec = c
		}
	}
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// limit is the concurrency gate: a semaphore sized MaxConcurrent, with the
// queue-depth gauge counting callers blocked on it. Callers that cannot get
// a slot within a grace period are rejected 429 + Retry-After so a stampede
// degrades instead of piling up. 429 — not 503 — because load-shedding is
// the client's signal to back off while the server is healthy; 503 is
// reserved for the server being sick (degraded mode) or giving up (deadline,
// budget), so the two failure families are distinguishable in dashboards
// and client retry policies.
func (s *Server) limit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m := s.eng.Metrics()
		select {
		case s.sem <- struct{}{}:
		default:
			m.QueueDepth.Add(1)
			t := time.NewTimer(s.timeout / 2)
			select {
			case s.sem <- struct{}{}:
				t.Stop()
				m.QueueDepth.Add(-1)
			case <-t.C:
				m.QueueDepth.Add(-1)
				m.Rejected.Add(1)
				// Capacity rejections still feed the breaker even though they
				// surface as 429: a stampede that outlasts the grace period
				// should push the server toward shedding expensive work too.
				s.breaker.RecordFailures(1)
				writeError(w, http.StatusTooManyRequests, errors.New("server at capacity"))
				return
			case <-r.Context().Done():
				t.Stop()
				m.QueueDepth.Add(-1)
				return
			}
		}
		defer func() { <-s.sem }()
		next.ServeHTTP(w, r)
	})
}

// instrument is the per-request observability spine shared by every /v1/*
// endpoint. For each request it:
//
//   - starts a trace, sets X-Trace-Id before the handler runs, and records
//     the finished span tree into the /debug/traces registry;
//   - increments exactly one requests_total_<endpoint> counter and exactly
//     one http_status_<endpoint>_<code> counter, on every path — 200 and
//     400/499/503/500 alike;
//   - records exactly one latency observation: into the http_<endpoint>
//     histogram on success, or http_<endpoint>_error on failure, so
//     canceled and failed queries never pollute the success percentiles;
//   - when the request exceeds the slowlog threshold, logs it with the
//     exact `wfrepro <cmd> -json ...` line that reproduces the query.
func (s *Server) instrument(name string, w http.ResponseWriter, r *http.Request, fn func(ctx context.Context) (any, error)) {
	m := s.eng.Metrics()
	s.pollSpillFaults()
	state := s.healthState()
	tr := obs.NewTrace()
	ctx := obs.WithTrace(r.Context(), tr)
	ctx, root := obs.StartSpan(ctx, "http."+name)
	w.Header().Set("X-Trace-Id", tr.ID)
	m.Inc("requests_total_" + name)
	m.Inc("requests_state_" + state)
	start := time.Now()
	v, err := fn(ctx)
	elapsed := time.Since(start)
	status := http.StatusOK
	var fwd *forwardResult
	if err != nil {
		status = statusFor(err)
		// 5xx outcomes feed the breaker — except degraded-mode sheds, which
		// are the breaker's own output; counting them would hold it tripped
		// forever under retry traffic.
		if status >= 500 && !errors.Is(err, ErrDegraded) {
			s.breaker.RecordFailures(1)
		}
	} else if f, ok := v.(*forwardResult); ok {
		// The owning peer answered; its status is this request's status, and
		// the route is recorded on the root span so a trace shows the hop.
		fwd = f
		status = f.status
		root.SetStr("cluster.owner", f.owner)
		root.SetInt("cluster.hop", 1)
		root.SetInt("cluster.epoch", int64(s.cluster.Epoch()))
	}
	root.SetStr("health_state", state)
	root.SetInt("status", int64(status))
	root.Finish()
	s.traces.Record(tr)
	m.Inc(fmt.Sprintf("http_status_%s_%d", name, status))
	if err != nil || status >= 400 {
		// Forwarded failures land in the error series too: a peer's 503
		// must not pollute the local success percentiles Retry-After uses.
		m.Observe("http_"+name+"_error", elapsed)
	} else {
		m.Observe("http_"+name, elapsed)
	}
	if s.slow > 0 && elapsed >= s.slow {
		args := []any{
			"endpoint", name,
			"trace_id", tr.ID,
			"status", status,
			"duration_ms", float64(elapsed) / float64(time.Millisecond),
			"repro", reproCommand(name, r),
		}
		if s.cluster != nil {
			// The epoch the route was chosen under: pairs with the owner to
			// make a misrouted slow query attributable to a stale ring view.
			args = append(args, "epoch", s.cluster.Epoch())
		}
		if fwd != nil {
			// Forwarded queries pin the route: the repro line replays the
			// computation anywhere, "owner" says which node served this one.
			args = append(args, "owner", fwd.owner)
		}
		s.logger.Warn("slow query", args...)
	}
	if err != nil {
		writeError(w, status, err)
		return
	}
	if fwd != nil {
		if fwd.contentType != "" {
			w.Header().Set("Content-Type", fwd.contentType)
		}
		if fwd.retryAfter != "" {
			w.Header().Set("Retry-After", fwd.retryAfter)
		}
		w.WriteHeader(fwd.status)
		if _, err := w.Write(fwd.body); err != nil {
			m.Inc("http_write_errors")
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := engine.WriteJSON(w, v); err != nil {
		// Headers are gone; nothing to do but record it.
		m.Inc("http_write_errors")
	}
}

// pollSpillFaults feeds the spill tier's failure counters into the breaker
// as deltas. Polling on the request path (rather than a background ticker)
// means zero goroutines and a breaker that is exactly as fresh as it needs
// to be: spill faults only matter when there is traffic to shed.
func (s *Server) pollSpillFaults() {
	cur := s.eng.Metrics().SpillFaults()
	if prev := s.spillSum.Swap(cur); cur > prev {
		s.breaker.RecordFailures(cur - prev)
	}
}

// healthState is the server's one-word self-assessment, surfaced on
// /healthz, as a span attribute, and as requests_state_* counters:
//
//	degraded   — the breaker tripped; only cache hits and cheap queries serve
//	overloaded — callers are queued on the concurrency gate
//	ok         — neither
//
// Degraded wins over overloaded: shedding is the stronger statement, and the
// queue usually drains precisely because degraded mode is shedding.
func (s *Server) healthState() string {
	if s.breaker.Degraded() {
		return "degraded"
	}
	if s.eng.Metrics().QueueDepth.Load() > 0 {
		return "overloaded"
	}
	return "ok"
}

// answer is the request pipeline's tail, shared by every /v1/* query
// endpoint and run on the cost and key the handler computed once:
//
//  1. Over MaxCost → 400 ErrOverBudget with the estimate in the body: the
//     query will never fit, resize it instead of retrying.
//  2. In degraded mode, over DegradedMaxCost and not already cached →
//     503 ErrDegraded + Retry-After: the query is fine, come back later.
//  3. Cluster routing (maybeForward), then the local engine call.
//
// Cached answers always pass admission: a hit costs no facets regardless of
// what the estimate (Lemma 3.3's closed-form facet count) says the query
// would cost to compute.
func (s *Server) answer(ctx context.Context, r *http.Request, cost int64, key string, local func() (any, error)) (any, error) {
	if s.maxCost > 0 && cost > s.maxCost {
		return nil, &costError{estimated: cost, budget: s.maxCost, err: engine.ErrOverBudget}
	}
	if cost > s.degCost && s.breaker.Degraded() && !s.eng.HasCached(key) {
		return nil, &costError{estimated: cost, budget: s.degCost, err: ErrDegraded}
	}
	if fr := s.maybeForward(ctx, r, key); fr != nil {
		return fr, nil
	}
	return local()
}

// costError carries the admission verdict's numbers so writeError can put
// machine-readable estimated_cost / max_cost fields in the response body.
// It wraps engine.ErrOverBudget or ErrDegraded for errors.Is classification.
type costError struct {
	estimated, budget int64
	err               error
}

func (e *costError) Error() string {
	return fmt.Sprintf("%v: estimated cost %d facets exceeds budget %d", e.err, e.estimated, e.budget)
}

func (e *costError) Unwrap() error { return e.err }

// reproCommand renders the wfrepro CLI line that replays an HTTP query
// offline: the -json subcommands share the engine (and encoder) with the
// service, so the line reproduces the exact bytes — and, with -trace, the
// exact span tree — of the slow request. Query parameters map 1:1 onto CLI
// flags except for the few whose names differ between the two surfaces.
func reproCommand(endpoint string, r *http.Request) string {
	// HTTP parameter → CLI flag renames, per endpoint.
	renames := map[string]map[string]string{
		"adversary": {"adversary": "adv", "procs": "n"},
	}
	parts := []string{"wfrepro", endpoint, "-json"}
	q := r.URL.Query()
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := q.Get(k)
		if v == "" {
			continue
		}
		flag := k
		if ren := renames[endpoint][k]; ren != "" {
			flag = ren
		}
		parts = append(parts, "-"+flag+"="+v)
	}
	return strings.Join(parts, " ")
}

// StatusClientClosedRequest is the (nginx-conventional) status recorded
// when the client disconnected before the answer was computed. Nobody
// receives the response body, but the status lands in metrics and logs.
const StatusClientClosedRequest = 499

// statusFor maps the engine's typed error taxonomy to HTTP statuses via
// errors.Is — no message matching:
//
//	engine.ErrInvalid                → 400 (the request was never attempted)
//	engine.ErrOverBudget             → 400 (admission: the query will never fit)
//	ErrDegraded                      → 503 (admission: the server is sick; retry)
//	context.DeadlineExceeded         → 503 (the server's deadline expired)
//	engine.ErrCanceled / Canceled    → 499 (the client went away)
//	solver.ErrBudget                 → 503 (no verdict within the node budget)
//	anything else                    → 500
//
// DeadlineExceeded is checked before ErrCanceled: the engine wraps every
// cancellation — including timeouts — in ErrCanceled, and a deadline is the
// server giving up, not the client.
func statusFor(err error) int {
	switch {
	case errors.Is(err, engine.ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, engine.ErrOverBudget):
		return http.StatusBadRequest
	case errors.Is(err, ErrDegraded):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	case errors.Is(err, engine.ErrCanceled), errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case errors.Is(err, solver.ErrBudget):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body := map[string]any{"error": err.Error()}
	var ce *costError
	if errors.As(err, &ce) {
		// Machine-readable admission verdict: the client can resize the
		// query (ErrOverBudget) or back off (ErrDegraded) without parsing
		// the message.
		body["estimated_cost"] = ce.estimated
		body["max_cost"] = ce.budget
	}
	engine.WriteJSON(w, body)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.instrument("solve", w, r, func(ctx context.Context) (any, error) {
		req, err := parseSolve(r.URL.Query())
		if err != nil {
			return nil, err
		}
		q, err := s.eng.PrepareSolve(req)
		if err != nil {
			return nil, err
		}
		return s.answer(ctx, r, q.Cost, q.Key, func() (any, error) { return s.eng.SolvePrepared(ctx, q) })
	})
}

func (s *Server) handleComplex(w http.ResponseWriter, r *http.Request) {
	s.instrument("complex", w, r, func(ctx context.Context) (any, error) {
		q := r.URL.Query()
		n, err := intParam(q, "n", 2, 0, 8)
		if err != nil {
			return nil, err
		}
		b, err := intParam(q, "b", 1, 0, 8)
		if err != nil {
			return nil, err
		}
		req := engine.ComplexRequest{N: n, B: b}
		cost, err := req.EstimateCost()
		if err != nil {
			return nil, err
		}
		return s.answer(ctx, r, cost, req.Key(), func() (any, error) { return s.eng.ComplexInfo(ctx, req) })
	})
}

func (s *Server) handleConverge(w http.ResponseWriter, r *http.Request) {
	s.instrument("converge", w, r, func(ctx context.Context) (any, error) {
		q := r.URL.Query()
		n, err := intParam(q, "n", 1, 0, 8)
		if err != nil {
			return nil, err
		}
		target, err := intParam(q, "target", 1, 0, 8)
		if err != nil {
			return nil, err
		}
		maxk, err := intParam(q, "maxk", 3, 0, 8)
		if err != nil {
			return nil, err
		}
		req := engine.ConvergeRequest{N: n, Target: target, MaxK: maxk}
		cost, err := req.EstimateCost()
		if err != nil {
			return nil, err
		}
		return s.answer(ctx, r, cost, req.Key(), func() (any, error) { return s.eng.Converge(ctx, req) })
	})
}

func (s *Server) handleAdversary(w http.ResponseWriter, r *http.Request) {
	s.instrument("adversary", w, r, func(ctx context.Context) (any, error) {
		req, err := parseAdversary(r.URL.Query())
		if err != nil {
			return nil, err
		}
		cost, err := req.EstimateCost()
		if err != nil {
			return nil, err
		}
		return s.answer(ctx, r, cost, req.Key(), func() (any, error) { return s.eng.Adversary(ctx, req) })
	})
}

// handleTraces serves the bounded trace registry: the full span tree for
// ?id=<trace-id>, or summaries of the recent traces without an id.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if id := r.URL.Query().Get("id"); id != "" {
		snap, ok := s.traces.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("trace %q not found (evicted or never recorded)", id))
			return
		}
		engine.WriteJSON(w, snap)
		return
	}
	engine.WriteJSON(w, map[string]any{"traces": s.traces.Recent()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.pollSpillFaults() // health probes see spill faults even with no traffic
	state := s.healthState()
	// Counts after healthState: the state check is where time-based recovery
	// happens, so a probe that reads "ok" also sees the recovery counted.
	trips, recoveries := s.breaker.Counts()
	w.Header().Set("Content-Type", "application/json")
	body := map[string]any{
		"status":             state,
		"cache_entries":      s.eng.CacheLen(),
		"breaker_trips":      trips,
		"breaker_recoveries": recoveries,
	}
	if s.cluster != nil {
		// Peer health, membership, and ring size — the prober's live view,
		// so a kill/heal cycle is observable from any surviving node.
		body["cluster"] = s.cluster.Snapshot()
	}
	engine.WriteJSON(w, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	engine.WriteJSON(w, s.eng.Metrics().Snapshot())
}

// parseSolve reads a SolveRequest from query parameters. Defaults mirror
// the CLI: maxb=2, engine-default node budget.
func parseSolve(q url.Values) (engine.SolveRequest, error) {
	var req engine.SolveRequest
	req.Spec.Family = q.Get("family")
	if req.Spec.Family == "" {
		return req, fmt.Errorf("%w: family is required (one of %v)", engine.ErrInvalid, engine.Families())
	}
	var err error
	if req.Spec.Procs, err = intParam(q, "procs", 0, 0, 64); err != nil {
		return req, err
	}
	if req.Spec.K, err = intParam(q, "k", 0, 0, 64); err != nil {
		return req, err
	}
	if req.Spec.D, err = intParam(q, "d", 0, 0, 1<<20); err != nil {
		return req, err
	}
	if req.Spec.M, err = intParam(q, "m", 0, 0, 64); err != nil {
		return req, err
	}
	if req.MaxLevel, err = intParam(q, "maxb", 2, 0, engine.MaxSolveLevel); err != nil {
		return req, err
	}
	maxNodes, err := intParam(q, "maxnodes", 0, 0, 1<<62)
	if err != nil {
		return req, err
	}
	req.MaxNodes = int64(maxNodes)
	// Affine model, canonical surface syntax; absent = wait-free. Passed
	// through verbatim: PrepareSolve rejects unknown or out-of-range models
	// with ErrInvalid → 400, and the repro line maps it 1:1 onto the CLI's
	// -model flag.
	req.Model = q.Get("model")
	return req, nil
}

// parseAdversary reads an AdversaryRequest from query parameters.
func parseAdversary(q url.Values) (engine.AdversaryRequest, error) {
	var req engine.AdversaryRequest
	req.Algo = q.Get("algo")
	if req.Algo == "" {
		return req, fmt.Errorf("%w: algo is required (one of %v)", engine.ErrInvalid, engine.AdversaryAlgos())
	}
	req.Adversary = q.Get("adversary")
	if req.Adversary == "" {
		req.Adversary = "round-robin"
	}
	var err error
	if req.Procs, err = intParam(q, "procs", 3, 1, 8); err != nil {
		return req, err
	}
	seed, err := intParam(q, "seed", 1, math.MinInt, math.MaxInt)
	if err != nil {
		return req, err
	}
	req.Seed = int64(seed)
	// The CLI's maxsteps < 0 (unlimited budget) is not offered over HTTP: a
	// request must not start a replay that never returns.
	if req.MaxSteps, err = intParam(q, "maxsteps", 0, 0, sched.DefaultMaxSteps); err != nil {
		return req, err
	}
	if cs := q.Get("crash"); cs != "" {
		req.Crash, err = engine.ParseCrashVector(cs, req.Procs)
		if err != nil {
			return req, err
		}
	}
	return req, nil
}

// intParam reads an integer query parameter (def when absent) inside a
// [min, max] sanity window, so negative or absurd values are rejected at the
// door instead of reaching the engine raw. The engine still applies its own
// (tighter, per-family) bounds.
func intParam(q url.Values, name string, def, min, max int) (int, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("%w: %s=%q is not an integer", engine.ErrInvalid, name, s)
	}
	if v < min || v > max {
		return 0, fmt.Errorf("%w: %s=%d out of range [%d,%d]", engine.ErrInvalid, name, v, min, max)
	}
	return v, nil
}

// Run serves s on addr until ctx is cancelled, then drains gracefully.
// ready, when non-nil, receives the bound address (useful with ":0") once
// the listener is up.
func Run(ctx context.Context, addr string, s *Server, ready chan<- string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutErr := srv.Shutdown(shutCtx)
		// Shutdown makes srv.Serve return promptly; drain its error so the
		// goroutine is never abandoned and a real serve failure (anything
		// but the expected ErrServerClosed) is surfaced.
		serveErr := <-errc
		if shutErr != nil {
			return shutErr
		}
		if serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
			return serveErr
		}
		return nil
	}
}

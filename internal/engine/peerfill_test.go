package engine

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// fakeFiller is a canned PeerFiller: returns the same (payload, source, err)
// on every Fetch and counts calls.
type fakeFiller struct {
	payload []byte
	source  string
	err     error
	calls   atomic.Int32
}

func (f *fakeFiller) Fetch(ctx context.Context, key string) ([]byte, string, error) {
	f.calls.Add(1)
	return f.payload, f.source, f.err
}

// fillSolveReq is a cheap solve query used across the fill tests.
var fillSolveReq = SolveRequest{Spec: TaskSpec{Family: "identity", Procs: 2}, MaxLevel: 0}

// TestPeerFillHit proves a fill-answered query never computes: the filler
// serves an artifact with a sentinel verdict no local computation would
// produce, and that sentinel comes back to the caller.
func TestPeerFillHit(t *testing.T) {
	sentinel := &SolveResponse{Task: "identity", Spec: fillSolveReq.Spec, Verdict: "FILLED FROM PEER", Solvable: true}
	payload, err := gobEncode(sentinel)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{})
	f := &fakeFiller{payload: payload, source: "http://peer-1"}
	e.SetPeerFiller(f)

	resp, err := e.Solve(context.Background(), fillSolveReq)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != "FILLED FROM PEER" {
		t.Fatalf("verdict %q — the engine computed instead of filling", resp.Verdict)
	}
	if got := e.Metrics().Counter("cluster_peer_fill_hit"); got != 1 {
		t.Fatalf("cluster_peer_fill_hit = %d, want 1", got)
	}
	if got := f.calls.Load(); got != 1 {
		t.Fatalf("filler called %d times, want 1", got)
	}

	// The filled artifact is admitted to the local cache: the repeat query
	// is a memory hit, no second fetch.
	if _, err := e.Solve(context.Background(), fillSolveReq); err != nil {
		t.Fatal(err)
	}
	if got := f.calls.Load(); got != 1 {
		t.Fatalf("repeat query re-fetched (calls=%d); want a local cache hit", got)
	}
	if got := e.Metrics().CacheHits.Load(); got != 1 {
		t.Fatalf("cache_hits = %d, want 1 for the repeat query", got)
	}
}

// TestPeerFillBadPayloadFallsBack pins the trust model: a payload that fails
// to decode is a miss and a local compute, never an error to the caller.
func TestPeerFillBadPayloadFallsBack(t *testing.T) {
	e := New(Options{})
	e.SetPeerFiller(&fakeFiller{payload: []byte("not a gob"), source: "http://peer-1"})
	resp, err := e.Solve(context.Background(), fillSolveReq)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Solvable || resp.Level != 0 {
		t.Fatalf("fallback compute produced a wrong verdict: %+v", resp)
	}
	m := e.Metrics()
	if m.Counter("cluster_peer_fill_miss") != 1 || m.Counter("cluster_peer_fill_decode_errors") != 1 {
		t.Fatalf("want 1 fill miss + 1 decode error, got miss=%d decode=%d",
			m.Counter("cluster_peer_fill_miss"), m.Counter("cluster_peer_fill_decode_errors"))
	}
	if m.Counter("cluster_peer_fill_hit") != 0 {
		t.Fatal("bad payload must not count as a fill hit")
	}
}

// TestPeerFillErrorFallsBack: a fetch error (owner down, 404, checksum
// mismatch — all surface as errors) means local compute.
func TestPeerFillErrorFallsBack(t *testing.T) {
	e := New(Options{})
	e.SetPeerFiller(&fakeFiller{err: errors.New("owner is down")})
	resp, err := e.Solve(context.Background(), fillSolveReq)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Solvable {
		t.Fatalf("fallback compute produced a wrong verdict: %+v", resp)
	}
	if got := e.Metrics().Counter("cluster_peer_fill_miss"); got != 1 {
		t.Fatalf("cluster_peer_fill_miss = %d, want 1", got)
	}
}

// TestPeerFillSkip: the (nil, "", nil) return — locally owned key — computes
// without counting a fill miss.
func TestPeerFillSkip(t *testing.T) {
	e := New(Options{})
	f := &fakeFiller{}
	e.SetPeerFiller(f)
	if _, err := e.Solve(context.Background(), fillSolveReq); err != nil {
		t.Fatal(err)
	}
	if f.calls.Load() == 0 {
		t.Fatal("filler was never consulted")
	}
	m := e.Metrics()
	if m.Counter("cluster_peer_fill_miss") != 0 || m.Counter("cluster_peer_fill_hit") != 0 {
		t.Fatalf("skip must count neither hit nor miss: hit=%d miss=%d",
			m.Counter("cluster_peer_fill_hit"), m.Counter("cluster_peer_fill_miss"))
	}
}

// TestEncodedArtifactRoundTrip pins the peer-serving side: the encoded
// artifact decodes back to the cached response, and the encoding is
// deterministic (two calls, identical bytes) — the property that makes its
// SHA-256 a content address.
func TestEncodedArtifactRoundTrip(t *testing.T) {
	e := New(Options{})
	req := ComplexRequest{N: 1, B: 1}
	want, err := e.ComplexInfo(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	payload, tier, ok := e.EncodedArtifact(req.Key())
	if !ok {
		t.Fatal("EncodedArtifact missed a just-computed key")
	}
	if tier != TierMemory {
		t.Fatalf("tier %q, want memory", tier)
	}
	var got ComplexResponse
	if err := gobDecode(payload, &got); err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := EncodeJSON(&got)
	wantJSON, _ := EncodeJSON(want)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("artifact round-trip diverged: %s vs %s", gotJSON, wantJSON)
	}
	again, _, _ := e.EncodedArtifact(req.Key())
	if string(again) != string(payload) {
		t.Fatal("encoding is not deterministic — SHA-256 cannot be its content address")
	}
	if _, _, ok := e.EncodedArtifact("cx:n=3:b=3"); ok {
		t.Fatal("EncodedArtifact invented an uncached artifact")
	}
	if _, _, ok := e.EncodedArtifact("nokind:whatever"); ok {
		t.Fatal("EncodedArtifact served a key kind with no codec")
	}
}

// TestAdmitEncodedRoundTrip pins the anti-entropy admission half: the bytes
// EncodedArtifact serves on one node, AdmitEncoded accepts on another, and
// the admitted key answers from cache without recomputing.
func TestAdmitEncodedRoundTrip(t *testing.T) {
	src := New(Options{})
	req := ComplexRequest{N: 1, B: 1}
	want, err := src.ComplexInfo(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	payload, _, ok := src.EncodedArtifact(req.Key())
	if !ok {
		t.Fatal("source artifact missing")
	}

	dst := New(Options{})
	if dst.HasCached(req.Key()) {
		t.Fatal("fresh engine already has the key")
	}
	if !dst.AdmitEncoded(req.Key(), payload) {
		t.Fatal("valid artifact rejected")
	}
	if !dst.HasCached(req.Key()) {
		t.Fatal("admitted key not cached")
	}
	got, err := dst.ComplexInfo(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := EncodeJSON(got)
	wantJSON, _ := EncodeJSON(want)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("admitted artifact diverged: %s vs %s", gotJSON, wantJSON)
	}

	// Untrusted input: garbage and codec-less kinds are rejections, never
	// panics, and a decode failure is counted.
	if dst.AdmitEncoded(req.Key(), []byte("not a gob")) {
		t.Fatal("garbage admitted")
	}
	if dst.Metrics().Counter("cluster_peer_fill_decode_errors") != 1 {
		t.Fatal("decode rejection not counted")
	}
	if dst.AdmitEncoded("nokind:whatever", payload) {
		t.Fatal("codec-less kind admitted")
	}
}

// TestCachedKeys: the inventory is MRU-first and bounded.
func TestCachedKeys(t *testing.T) {
	e := New(Options{})
	for _, req := range []ComplexRequest{{N: 1, B: 1}, {N: 2, B: 1}, {N: 1, B: 2}} {
		if _, err := e.ComplexInfo(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	keys := e.CachedKeys(0)
	if len(keys) < 3 {
		t.Fatalf("CachedKeys returned %d keys, want >= 3", len(keys))
	}
	if keys[0] != (ComplexRequest{N: 1, B: 2}).Key() {
		t.Fatalf("MRU key = %q, want the most recent query's", keys[0])
	}
	if got := e.CachedKeys(2); len(got) != 2 {
		t.Fatalf("bounded listing returned %d keys, want 2", len(got))
	}
}

// TestFetchByteLimit pins the cost-derived fetch bound: parseable keys scale
// with their facet-count estimate, opaque and malformed keys get the flat
// floor, and nothing escapes the ceiling.
func TestFetchByteLimit(t *testing.T) {
	e := New(Options{})
	small := e.FetchByteLimit("cx:n=1:b=1")
	big := e.FetchByteLimit("cx:n=3:b=3")
	if small < fetchLimitBase {
		t.Fatalf("limit %d below the floor", small)
	}
	if big <= small {
		t.Fatalf("cost scaling inverted: cx(3,3)=%d <= cx(1,1)=%d", big, small)
	}
	if big > fetchLimitMax {
		t.Fatalf("limit %d above the ceiling", big)
	}
	// A hostile key claiming absurd parameters saturates at the ceiling
	// instead of overflowing into a tiny or negative bound.
	if got := e.FetchByteLimit("cx:n=2000000000:b=2000000000"); got != fetchLimitMax {
		t.Fatalf("absurd parameters → %d, want the %d ceiling", got, fetchLimitMax)
	}
	for _, opaque := range []string{
		"solve:deadbeef:maxb=1:maxnodes=0",
		"adv:algo=x",
		"cx:garbage",
		"nokind",
	} {
		if got := e.FetchByteLimit(opaque); got != fetchLimitBase {
			t.Fatalf("FetchByteLimit(%q) = %d, want the flat %d floor", opaque, got, fetchLimitBase)
		}
	}
	if got := e.FetchByteLimit("conv:n=2:target=1:maxk=3"); got < fetchLimitBase {
		t.Fatalf("conv limit %d below floor", got)
	}
}

// TestFetchByteLimitHostileKeyBoundedHeap: pricing a key whose parameters
// are absurd allocates next to nothing and returns at once. A peer's
// inventory reaches this path through anti-entropy, so the parameters are
// untrusted and must never size an allocation or a loop.
func TestFetchByteLimitHostileKeyBoundedHeap(t *testing.T) {
	e := New(Options{})
	for _, key := range []string{
		"cx:n=2000000000:b=2000000000",
		"cx:n=0:b=2000000000",
		"cx:n=1:b=2000000000",
		"conv:n=2000000000:target=2000000000:maxk=2000000000",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		limit := e.FetchByteLimit(key)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("FetchByteLimit(%q) allocated %d bytes, want < 1 MiB", key, d)
		}
		if elapsed > time.Second {
			t.Errorf("FetchByteLimit(%q) took %v", key, elapsed)
		}
		if limit < fetchLimitBase || limit > fetchLimitMax {
			t.Errorf("FetchByteLimit(%q) = %d, outside [%d, %d]", key, limit, fetchLimitBase, fetchLimitMax)
		}
	}
}

package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"waitfree/internal/cluster"
	"waitfree/internal/engine"
)

// clusterNode is one in-process cluster member: a full Server (engine +
// cluster + prober) on a real TCP listener, so forwards, fills, and probes
// travel over actual HTTP exactly as they would between processes.
type clusterNode struct {
	url    string // normalized advertise address
	addr   string // host:port, for re-binding after a kill
	s      *Server
	hs     *http.Server
	cancel context.CancelFunc
}

// kill simulates a node death: the prober stops and the listener plus every
// established connection close, so peers see transport errors, not clean
// HTTP failures.
func (n *clusterNode) kill() {
	n.cancel()
	n.hs.Close()
}

// nodeConfig tunes one test member beyond bootNode's defaults: a shorter
// gossip cadence for convergence-speed tests, a fault-injecting transport
// for the churn soak, and a tighter client timeout so a blackholed fetch
// fails fast instead of stalling a request for the whole serve deadline.
type nodeConfig struct {
	gossipInterval time.Duration     // 0 = cluster default
	clientTimeout  time.Duration     // 0 = 5s
	transport      http.RoundTripper // non-nil wraps every outbound cluster request
}

// bootNode starts one cluster member on ln. Probe intervals are cranked down
// so kill/heal convergence fits in test time.
func bootNode(t *testing.T, ln net.Listener, self string, peers []string) *clusterNode {
	t.Helper()
	return bootNodeCfg(t, ln, self, peers, nodeConfig{})
}

// bootNodeCfg is bootNode with the knobs the churn soak needs. The wiring
// mirrors cmd/wfrepro exactly — admitter and fetch bound come from the
// engine — so what the soak exercises is what production runs.
func bootNodeCfg(t *testing.T, ln net.Listener, self string, peers []string, cfg nodeConfig) *clusterNode {
	t.Helper()
	eng := engine.New(engine.Options{})
	clientTimeout := cfg.clientTimeout
	if clientTimeout == 0 {
		clientTimeout = 5 * time.Second
	}
	cl, err := cluster.New(cluster.Options{
		Self:           self,
		Peers:          peers,
		ProbeInterval:  40 * time.Millisecond,
		ProbeTimeout:   300 * time.Millisecond,
		GossipInterval: cfg.gossipInterval,
		Metrics:        eng.Metrics(),
		Client:         &http.Client{Timeout: clientTimeout, Transport: cfg.transport},
		Admitter:       eng,
		FetchLimit:     eng.FetchByteLimit,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetPeerFiller(cl)
	s := NewServer(eng, Options{Cluster: cl, Timeout: 10 * time.Second})
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	ctx, cancel := context.WithCancel(context.Background())
	cl.Start(ctx)
	n := &clusterNode{url: cluster.NormalizeAddr(self), addr: ln.Addr().String(), s: s, hs: hs, cancel: cancel}
	t.Cleanup(n.kill)
	return n
}

// bootCluster starts size members sharing one static peer list. Listeners
// are bound first so every node knows the full membership before serving —
// the same contract the -peers flag gives real deployments.
func bootCluster(t *testing.T, size int) []*clusterNode {
	t.Helper()
	lns := make([]net.Listener, size)
	urls := make([]string, size)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*clusterNode, size)
	for i := range nodes {
		nodes[i] = bootNode(t, lns[i], urls[i], urls)
	}
	return nodes
}

// clusterQuery pairs an HTTP query with the cache key it parses to, so tests
// can ask the ring who owns it.
type clusterQuery struct {
	path string
	key  string
}

func clusterQueries() []clusterQuery {
	return []clusterQuery{
		{"/v1/complex?n=1&b=1", engine.ComplexRequest{N: 1, B: 1}.Key()},
		{"/v1/complex?n=1&b=2", engine.ComplexRequest{N: 1, B: 2}.Key()},
		{"/v1/complex?n=2&b=1", engine.ComplexRequest{N: 2, B: 1}.Key()},
		{"/v1/complex?n=2&b=2", engine.ComplexRequest{N: 2, B: 2}.Key()},
		{"/v1/solve?family=identity&procs=2&maxb=1",
			engine.SolveRequest{Spec: engine.TaskSpec{Family: "identity", Procs: 2}, MaxLevel: 1}.Key()},
		{"/v1/solve?family=consensus&procs=2&maxb=1",
			engine.SolveRequest{Spec: engine.TaskSpec{Family: "consensus", Procs: 2}, MaxLevel: 1}.Key()},
		{"/v1/converge?n=1&target=1&maxk=2",
			engine.ConvergeRequest{N: 1, Target: 1, MaxK: 2}.Key()},
		{"/v1/adversary?algo=commitadopt&adversary=random&seed=7&procs=3",
			engine.AdversaryRequest{Algo: "commitadopt", Adversary: "random", Seed: 7, Procs: 3}.Key()},
	}
}

// referenceBodies computes every query's answer on a fresh single-node
// server: the byte-identity oracle for everything a cluster serves.
func referenceBodies(t *testing.T, queries []clusterQuery) map[string][]byte {
	t.Helper()
	ts := httptest.NewServer(NewServer(engine.New(engine.Options{}), Options{}).Handler())
	defer ts.Close()
	ref := make(map[string][]byte, len(queries))
	for _, q := range queries {
		code, body := get(t, ts.URL+q.path)
		if code != http.StatusOK {
			t.Fatalf("reference %s: %d %s", q.path, code, body)
		}
		ref[q.path] = body
	}
	return ref
}

// nodeFor splits nodes into the owner of key and everyone else.
func nodeFor(t *testing.T, nodes []*clusterNode, key string) (owner *clusterNode, others []*clusterNode) {
	t.Helper()
	ownerURL, _ := nodes[0].s.cluster.Owner(key)
	for _, n := range nodes {
		if n.url == ownerURL {
			owner = n
		} else {
			others = append(others, n)
		}
	}
	if owner == nil {
		t.Fatalf("owner %s of %s is not a cluster member", ownerURL, key)
	}
	return owner, others
}

func counter(n *clusterNode, name string) int64 {
	return n.s.Engine().Metrics().Counter(name)
}

// TestClusterForwardAndFill is the tentpole's acceptance path on a live
// 3-node cluster:
//
//  1. a cold query at a non-owner is forwarded one hop; the owner computes
//     and the relayed body is byte-identical to a single-node server's;
//  2. the same query at the second non-owner is served via peer cache-fill —
//     one verified artifact fetch, cluster_peer_fill_hit increments, and no
//     engine anywhere recomputes;
//  3. repeats are local cache hits: no further forwards, fills, or fetches.
func TestClusterForwardAndFill(t *testing.T) {
	queries := clusterQueries()
	ref := referenceBodies(t, queries)
	nodes := bootCluster(t, 3)

	q := queries[3] // complex n=2 b=2: expensive enough that a recompute would be visible
	owner, others := nodeFor(t, nodes, q.key)
	nonA, nonB := others[0], others[1]

	// 1. Cold query at a non-owner: one forwarded hop, owner computes.
	code, body := get(t, nonA.url+q.path)
	if code != http.StatusOK || string(body) != string(ref[q.path]) {
		t.Fatalf("forwarded query: %d, body diverged from single-node reference:\n got: %s\nwant: %s", code, body, ref[q.path])
	}
	if got := counter(nonA, "cluster_forwarded_total"); got != 1 {
		t.Fatalf("non-owner forwarded counter = %d, want 1", got)
	}
	if !owner.s.Engine().HasCached(q.key) {
		t.Fatal("the owner must hold the artifact after a forwarded query")
	}
	if nonA.s.Engine().HasCached(q.key) {
		t.Fatal("forwarding must not admit the artifact on the relay node")
	}

	// 2. Same query at the second non-owner: peer fill, no forward.
	code, body = get(t, nonB.url+q.path)
	if code != http.StatusOK || string(body) != string(ref[q.path]) {
		t.Fatalf("filled query: %d, body diverged:\n got: %s\nwant: %s", code, body, ref[q.path])
	}
	if got := counter(nonB, "cluster_peer_fill_hit"); got != 1 {
		t.Fatalf("cluster_peer_fill_hit = %d, want 1", got)
	}
	if got := counter(nonB, "cluster_forwarded_total"); got != 0 {
		t.Fatalf("fill must preempt forwarding, forwarded = %d", got)
	}
	if !nonB.s.Engine().HasCached(q.key) {
		t.Fatal("a fill must admit the artifact locally")
	}

	// 3. The relay node repeats the query: filled now, forwarded never again.
	code, body = get(t, nonA.url+q.path)
	if code != http.StatusOK || string(body) != string(ref[q.path]) {
		t.Fatalf("repeat at relay node: %d %s", code, body)
	}
	if got := counter(nonA, "cluster_peer_fill_hit"); got != 1 {
		t.Fatalf("relay node repeat should fill once, got %d", got)
	}
	if got := counter(nonA, "cluster_forwarded_total"); got != 1 {
		t.Fatalf("relay node must not forward a fillable repeat, forwarded = %d", got)
	}

	// Cluster-wide: exactly one compute, on the owner.
	if m, a, b := owner.s.Engine().Metrics().CacheMisses.Load(),
		nonA.s.Engine().Metrics().CacheMisses.Load(),
		nonB.s.Engine().Metrics().CacheMisses.Load(); m != 1 || a != 0 || b != 0 {
		t.Fatalf("computes (owner, nonA, nonB) = (%d, %d, %d), want (1, 0, 0)", m, a, b)
	}
	if got := counter(owner, "cluster_peer_artifact_served"); got != 2 {
		t.Fatalf("owner served %d artifacts, want 2 (one per non-owner fill)", got)
	}

	// Repeats everywhere are now local hits: no new cluster traffic at all.
	for _, n := range nodes {
		get(t, n.url+q.path)
	}
	if got := counter(owner, "cluster_peer_artifact_served"); got != 2 {
		t.Fatalf("cached repeats re-fetched from the owner: served = %d, want 2", got)
	}
}

// TestClusterOneHopLoopGuard: a request already carrying X-WFR-Forwarded is
// served locally no matter what the ring says — the guard that bounds
// routing at one hop even when membership views disagree.
func TestClusterOneHopLoopGuard(t *testing.T) {
	queries := clusterQueries()
	ref := referenceBodies(t, queries)
	nodes := bootCluster(t, 2)

	// Find a query this node does NOT own — the one it would normally forward.
	var q clusterQuery
	found := false
	for _, cand := range queries {
		if _, self := nodes[0].s.cluster.Owner(cand.key); !self {
			q, found = cand, true
			break
		}
	}
	if !found {
		t.Fatal("no query owned by the peer; broaden the query list")
	}

	req, err := http.NewRequest(http.MethodGet, nodes[0].url+q.path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.HeaderForwarded, "http://elsewhere:1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != string(ref[q.path]) {
		t.Fatalf("forwarded-marked query must serve locally and correctly: %d %s", resp.StatusCode, body)
	}
	if got := counter(nodes[0], "cluster_forwarded_total"); got != 0 {
		t.Fatalf("a forwarded query was forwarded again (count %d): routing can loop", got)
	}
	if !nodes[0].s.Engine().HasCached(q.key) {
		t.Fatal("the non-owner must have computed (or filled) the answer itself")
	}
}

// TestClusterHealthz: /healthz grows a cluster section with membership, ring
// shape, and live peer states.
func TestClusterHealthz(t *testing.T) {
	nodes := bootCluster(t, 3)
	hz := getHealthz(t, http.DefaultClient, nodes[0].url)
	cs, ok := hz["cluster"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no cluster section: %v", hz)
	}
	if cs["self"] != nodes[0].url {
		t.Fatalf("cluster.self = %v, want %s", cs["self"], nodes[0].url)
	}
	if cs["peer_count"].(float64) != 2 || cs["ring_nodes"].(float64) != 3 {
		t.Fatalf("cluster section: %v", cs)
	}
	peers := cs["peers"].(map[string]any)
	for _, n := range nodes[1:] {
		if peers[n.url] != "up" {
			t.Fatalf("peer %s state = %v, want up (peers: %v)", n.url, peers[n.url], peers)
		}
	}

	// Single-node servers keep their healthz shape: no cluster key at all.
	_, single := newTestServer(t, engine.Options{}, Options{})
	if hz := getHealthz(t, http.DefaultClient, single.URL); hz["cluster"] != nil {
		t.Fatalf("single-node healthz must not have a cluster section: %v", hz)
	}
}

// TestPeerArtifactEndpoint exercises the real route (Go 1.22 pattern,
// path-escaped keys) end to end: a finished artifact comes back with its
// SHA-256 content address; unknown keys 404 without computing anything.
func TestPeerArtifactEndpoint(t *testing.T) {
	nodes := bootCluster(t, 2)
	queries := clusterQueries()

	// A key this node owns, computed locally first.
	var q clusterQuery
	found := false
	for _, cand := range queries {
		if _, self := nodes[0].s.cluster.Owner(cand.key); self {
			q, found = cand, true
			break
		}
	}
	if !found {
		t.Fatal("no query owned by node 0; broaden the query list")
	}
	if code, body := get(t, nodes[0].url+q.path); code != http.StatusOK {
		t.Fatalf("priming query: %d %s", code, body)
	}

	resp, err := http.Get(nodes[0].url + cluster.ArtifactPath + url.PathEscape(q.key))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact fetch: %d %s", resp.StatusCode, payload)
	}
	sum := sha256.Sum256(payload)
	if got, want := resp.Header.Get(cluster.HeaderSha256), hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("X-WFR-Sha256 = %s, payload hashes to %s", got, want)
	}
	if tier := resp.Header.Get(cluster.HeaderTier); tier == "" {
		t.Fatal("artifact response must name its cache tier")
	}

	// Unknown key: 404 and strictly no compute. The key is one no query in
	// clusterQueries asks for, so it is unknown whichever query primed.
	misses := nodes[0].s.Engine().Metrics().CacheMisses.Load()
	code, _ := get(t, nodes[0].url+cluster.ArtifactPath+url.PathEscape("cx:n=0:b=3"))
	if code != http.StatusNotFound {
		t.Fatalf("uncached artifact: %d, want 404", code)
	}
	if now := nodes[0].s.Engine().Metrics().CacheMisses.Load(); now != misses {
		t.Fatal("the artifact endpoint computed on a miss; it must be a pure cache read")
	}
}

// waitPeerState polls a node's healthz until it reports peer in state want.
func waitPeerState(t *testing.T, n *clusterNode, peer, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		hz := getHealthz(t, http.DefaultClient, n.url)
		peers := hz["cluster"].(map[string]any)["peers"].(map[string]any)
		if peers[peer] == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never saw %s reach %q (peers: %v)", n.url, peer, want, peers)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// clusterLoad fires workers×rounds mixed queries at targets and asserts the
// soak invariants: every 200 byte-identical to the single-node reference,
// every non-200 in the clean-rejection set, no transport errors.
func clusterLoad(t *testing.T, targets []*clusterNode, queries []clusterQuery, ref map[string][]byte, workers, rounds int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				q := queries[(w*7+i)%len(queries)]
				node := targets[(w*3+i)%len(targets)]
				resp, err := http.Get(node.url + q.path)
				if err != nil {
					errs <- fmt.Errorf("%s via %s: transport error: %v", q.path, node.url, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- fmt.Errorf("%s via %s: %v", q.path, node.url, err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					if string(body) != string(ref[q.path]) {
						errs <- fmt.Errorf("%s via %s: 200 body diverged from single-node reference:\n got: %s\nwant: %s",
							q.path, node.url, body, ref[q.path])
						return
					}
				case http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
					// Clean rejection; fine under load or mid-kill.
				default:
					errs <- fmt.Errorf("%s via %s: status %d (%s) — a node kill must never surface as a wrong status",
						q.path, node.url, resp.StatusCode, body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
}

// TestClusterChaosKillHeal is the whole-node chaos satellite: a 3-node
// cluster under load loses a member (SIGKILL-equivalent: listener and
// connections torn down, prober stopped), the survivors keep answering
// byte-identically to a single-node reference — a dead owner degrades to
// local recompute, never to 500s or wrong bytes — and once the node
// restarts, the ring converges back to all-up and every member serves again.
func TestClusterChaosKillHeal(t *testing.T) {
	queries := clusterQueries()
	ref := referenceBodies(t, queries)
	nodes := bootCluster(t, 3)

	// Phase 1: healthy cluster under mixed load through every node.
	clusterLoad(t, nodes, queries, ref, 4, 12)

	// Kill one node mid-life. Survivors must discover it (passively via
	// failed forwards/fills, actively via probes) and keep serving.
	victim := nodes[1]
	survivors := []*clusterNode{nodes[0], nodes[2]}
	victim.kill()
	clusterLoad(t, survivors, queries, ref, 4, 12)
	for _, n := range survivors {
		waitPeerState(t, n, victim.url, "down")
	}
	downCount := counter(survivors[0], "cluster_peer_down_total") + counter(survivors[1], "cluster_peer_down_total")
	if downCount < 1 {
		t.Fatalf("no survivor counted the death: cluster_peer_down_total sum = %d", downCount)
	}

	// Heal: restart at the same address (a fresh process: empty cache, same
	// membership). Binding can race the OS reclaiming the port; retry.
	var ln net.Listener
	var err error
	for end := time.Now().Add(5 * time.Second); ; {
		if ln, err = net.Listen("tcp", victim.addr); err == nil {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("re-binding %s: %v", victim.addr, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	peerURLs := []string{nodes[0].url, victim.url, nodes[2].url}
	restarted := bootNode(t, ln, victim.url, peerURLs)

	// The ring converges: every member sees every peer up again.
	all := []*clusterNode{nodes[0], restarted, nodes[2]}
	for _, n := range all {
		for _, p := range all {
			if p != n {
				waitPeerState(t, n, p.url, "up")
			}
		}
	}

	// Phase 3: full service through every node, including the restarted one
	// (whose empty cache refills via forwards and peer fills).
	clusterLoad(t, all, queries, ref, 4, 12)
	forwards, fills := int64(0), int64(0)
	for _, n := range all {
		forwards += counter(n, "cluster_forwarded_total")
		fills += counter(n, "cluster_peer_fill_hit")
	}
	if forwards+fills == 0 {
		t.Fatal("no cluster traffic at all — the soak never exercised routing")
	}
}

package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"waitfree/internal/cluster"
	"waitfree/internal/engine"
	"waitfree/internal/obs"
)

// forwardResult is a query fully answered by the owning peer: the serving
// layer relays its status and body verbatim (responses are byte-identical
// across nodes — same engine, same encoder), so a client cannot tell which
// node computed its answer.
type forwardResult struct {
	owner       string
	status      int
	contentType string
	retryAfter  string
	body        []byte
}

// maybeForward is the cluster routing step, run after parsing and admission
// with the request's cache key in hand. It returns nil when the query should
// be served locally, which covers:
//
//   - no cluster configured, or this node owns the key;
//   - the request already carries X-WFR-Forwarded (one-hop loop guard: a
//     stale ring view on another node must not bounce queries around);
//   - the local store already has the answer (serving a cached non-owned
//     key costs nothing and no network);
//   - peer cache-fill succeeded — the owner's finished artifact was fetched,
//     verified against its SHA-256, and admitted locally, so the engine call
//     that follows is a cache hit (this is the repeated-query path: one
//     small artifact fetch, no recompute, no forward);
//   - the owner is down, or the forward itself failed — compute locally
//     rather than fail the query: a dead owner degrades the cluster to
//     independent nodes, never to errors.
//
// Otherwise the query is forwarded one hop to the owner and the peer's
// response is returned for verbatim relay. Cold queries concentrate on the
// owner this way, and the owner's singleflight makes N nodes × M clients
// asking one question cost one search cluster-wide.
func (s *Server) maybeForward(ctx context.Context, r *http.Request, key string) *forwardResult {
	cl := s.cluster
	if cl == nil || r.Header.Get(cluster.HeaderForwarded) != "" {
		return nil
	}
	owner, self := cl.Owner(key)
	if self {
		return nil
	}
	ctx, span := obs.StartSpan(ctx, "cluster.route")
	defer span.Finish()
	span.SetStr("cluster.owner", owner)
	// The epoch rides next to the owner on every routing span: a misrouted
	// request is diagnosable after the fact by comparing the two nodes'
	// epochs at the moment the route was chosen.
	span.SetInt("cluster.epoch", int64(cl.Epoch()))
	if s.eng.HasCached(key) {
		span.SetStr("cluster.route", "local_hit")
		return nil
	}
	if s.eng.TryPeerFill(ctx, key) {
		span.SetStr("cluster.route", "fill")
		return nil
	}
	if !cl.Available(owner) {
		span.SetStr("cluster.route", "owner_down")
		return nil
	}
	fr, err := s.forward(ctx, owner, r)
	if err != nil {
		span.SetStr("cluster.route", "forward_error")
		s.eng.Metrics().Inc("cluster_forward_errors")
		return nil
	}
	span.SetStr("cluster.route", "forwarded")
	span.SetInt("cluster.hop", 1)
	s.eng.Metrics().Inc("cluster_forwarded_total")
	return fr
}

// forward relays r to the owning peer with the forwarded marker and the
// originating trace ID set, and captures the response for verbatim replay.
// Transport failures mark the peer (suspect → down) so the next query stops
// trying it before the prober catches up.
func (s *Server) forward(ctx context.Context, owner string, r *http.Request) (*forwardResult, error) {
	u := owner + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(cluster.HeaderForwarded, s.cluster.Self())
	if tr := obs.FromContext(ctx); tr != nil {
		req.Header.Set(cluster.HeaderTraceID, tr.ID)
	}
	resp, err := s.cluster.Client().Do(req)
	if err != nil {
		s.cluster.MarkFailure(owner)
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		s.cluster.MarkFailure(owner)
		return nil, err
	}
	s.cluster.MarkSuccess(owner)
	return &forwardResult{
		owner:       owner,
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
		body:        body,
	}, nil
}

// handlePeerArtifact serves the peer-internal artifact endpoint: the encoded
// artifact cached under the path's key, with its SHA-256 content address in
// X-WFR-Sha256 for end-to-end verification by the fetching peer. Strictly a
// cache read — it never computes, never fills, and never forwards, so fills
// cannot cascade or cycle. 404 means "not finished here"; the caller
// computes (or forwards) as it sees fit.
func (s *Server) handlePeerArtifact(w http.ResponseWriter, r *http.Request) {
	m := s.eng.Metrics()
	m.Inc("cluster_peer_artifact_requests")
	if tid := r.Header.Get(cluster.HeaderTraceID); tid != "" {
		w.Header().Set(cluster.HeaderTraceID, tid)
	}
	key := r.PathValue("key")
	payload, tier, ok := s.eng.EncodedArtifact(key)
	if !ok {
		m.Inc("cluster_peer_artifact_misses")
		writeError(w, http.StatusNotFound, fmt.Errorf("no finished artifact for key %q", key))
		return
	}
	sum := sha256.Sum256(payload)
	w.Header().Set(cluster.HeaderSha256, hex.EncodeToString(sum[:]))
	w.Header().Set(cluster.HeaderTier, tier)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
	m.Inc("cluster_peer_artifact_served")
	w.Write(payload)
}

// handleGossip is the server half of a membership exchange: merge the
// caller's view, answer with ours. The payload is bounded — a membership
// list is a few hundred bytes per node; anything near the cap is garbage.
func (s *Server) handleGossip(w http.ResponseWriter, r *http.Request) {
	var msg cluster.GossipMsg
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&msg); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad gossip payload: %w", err))
		return
	}
	reply := s.cluster.HandleGossip(msg)
	w.Header().Set("Content-Type", "application/json")
	engine.WriteJSON(w, reply)
}

// handlePeerProbe is the indirect-probe relay: a peer that cannot reach a
// suspect asks us to try (?target=addr). 204 means we reached it; 502 means
// we couldn't either. Only known members are probed — this endpoint must
// not be a generic request proxy.
func (s *Server) handlePeerProbe(w http.ResponseWriter, r *http.Request) {
	target := cluster.NormalizeAddr(r.URL.Query().Get("target"))
	if target == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("target parameter is required"))
		return
	}
	if !s.cluster.Known(target) {
		writeError(w, http.StatusNotFound, fmt.Errorf("%s is not a known member", target))
		return
	}
	s.eng.Metrics().Inc("cluster_indirect_probe_requests")
	if err := s.cluster.DirectProbe(r.Context(), target); err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("indirect probe of %s failed: %w", target, err))
		return
	}
	// Free evidence: we just reached it, so our own view recovers too.
	s.cluster.MarkSuccess(target)
	w.WriteHeader(http.StatusNoContent)
}

// handlePeerKeys lists this node's finished cache keys for anti-entropy:
// a peer that just gained ownership of part of the keyspace walks this
// inventory and pulls what it now owns. Bounded like the artifact path —
// strictly a cache read.
func (s *Server) handlePeerKeys(w http.ResponseWriter, r *http.Request) {
	s.eng.Metrics().Inc("cluster_peer_keys_requests")
	w.Header().Set("Content-Type", "application/json")
	engine.WriteJSON(w, map[string]any{"keys": s.eng.CachedKeys(cluster.MaxInventoryKeys)})
}

// handleNetfault is the dev-only control surface for the deterministic
// network adversary (mounted only when serve was started with a netfault
// transport): GET reads the current state; ?partition=<spec> installs or
// heals a partition, ?enabled=true|false pauses the scheduled plan. This is
// what lets CI partition three real processes mid-run without root.
func (s *Server) handleNetfault(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if _, ok := q["partition"]; ok {
		if err := s.netfault.SetPartition(q.Get("partition")); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	if v := q.Get("enabled"); v != "" {
		on, err := strconv.ParseBool(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("enabled=%q is not a bool", v))
			return
		}
		s.netfault.SetEnabled(on)
	}
	w.Header().Set("Content-Type", "application/json")
	engine.WriteJSON(w, s.netfault.Snapshot())
}

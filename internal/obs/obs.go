// Package obs is the repository's zero-dependency observability layer:
// request-scoped traces (a span tree with durations and domain attributes)
// carried through context.Context, plus a bounded registry of completed
// traces for the /debug/traces endpoint.
//
// The design mirrors OpenTelemetry's span model at 1% of the surface: a
// Trace owns a tree of Spans; StartSpan reads the active trace (and parent
// span) out of the context and returns a child context with the new span
// active. Every operation is nil-safe — when no trace is attached to the
// context, StartSpan returns a nil *Span whose methods are no-ops, so
// instrumented hot paths (the solver's search, the subdivision)
// cost two pointer-sized context lookups when tracing is off. That is what
// keeps BenchmarkScheduledEmulation flat with the layer compiled in.
//
// Domain attributes are the point, not an afterthought: the solver reports
// its exact node count and the subdivision its exact facet count, so a
// trace is cross-checkable against Lemma 3.3's combinatorics (the golden
// tests in internal/topology do exactly that).
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"time"
)

// Trace is one request's span tree. All methods are safe for concurrent
// use: a request's singleflight compute runs on its own goroutine and
// records into the starter's trace (Transplant).
type Trace struct {
	ID    string
	start time.Time

	mu    sync.Mutex
	spans []*Span // in start order; spans[0] is the root when present
}

// Span is one timed operation within a trace, with integer and string
// attributes. A nil *Span is valid and inert.
type Span struct {
	trace  *Trace
	parent *Span

	Name  string
	start time.Time
	end   time.Time // zero until Finish

	ints map[string]int64
	strs map[string]string
}

// NewTrace starts a trace with a fresh random 16-byte hex ID.
func NewTrace() *Trace {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to a fixed
		// marker rather than plumbing an error through every caller.
		copy(b[:], "obs-fallback-id!")
	}
	return &Trace{ID: hex.EncodeToString(b[:]), start: time.Now()}
}

func (t *Trace) newSpan(name string, parent *Span) *Span {
	s := &Span{trace: t, parent: parent, Name: name, start: time.Now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Finish marks the span complete. Idempotent; nil-safe.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.trace.mu.Unlock()
}

// SetInt records an integer attribute (node counts, facet counts, 0/1
// flags). Nil-safe.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	if s.ints == nil {
		s.ints = make(map[string]int64)
	}
	s.ints[key] = v
	s.trace.mu.Unlock()
}

// SetStr records a string attribute (cache tier, task family). Nil-safe.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	if s.strs == nil {
		s.strs = make(map[string]string)
	}
	s.strs[key] = v
	s.trace.mu.Unlock()
}

// SpanSnapshot is the JSON-able view of one span. Parent is the index of
// the parent span in the trace's Spans slice, -1 for roots.
type SpanSnapshot struct {
	Name       string            `json:"name"`
	Parent     int               `json:"parent"`
	StartUs    int64             `json:"start_us"` // offset from trace start
	DurationMs float64           `json:"duration_ms"`
	Ints       map[string]int64  `json:"attrs,omitempty"`
	Strs       map[string]string `json:"str_attrs,omitempty"`
}

// TraceSnapshot is the JSON-able view of a whole trace.
type TraceSnapshot struct {
	ID         string         `json:"id"`
	DurationMs float64        `json:"duration_ms"`
	Spans      []SpanSnapshot `json:"spans"`
}

// Snapshot returns a deep, immutable copy of the trace's current state.
// Unfinished spans report their duration as of the snapshot.
func (t *Trace) Snapshot() *TraceSnapshot {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := make(map[*Span]int, len(t.spans))
	for i, s := range t.spans {
		idx[s] = i
	}
	out := &TraceSnapshot{ID: t.ID, Spans: make([]SpanSnapshot, len(t.spans))}
	var last time.Time
	for i, s := range t.spans {
		end := s.end
		if end.IsZero() {
			end = now
		}
		if end.After(last) {
			last = end
		}
		parent := -1
		if s.parent != nil {
			if p, ok := idx[s.parent]; ok {
				parent = p
			}
		}
		snap := SpanSnapshot{
			Name:       s.Name,
			Parent:     parent,
			StartUs:    s.start.Sub(t.start).Microseconds(),
			DurationMs: float64(end.Sub(s.start)) / float64(time.Millisecond),
		}
		if len(s.ints) > 0 {
			snap.Ints = make(map[string]int64, len(s.ints))
			for k, v := range s.ints {
				snap.Ints[k] = v
			}
		}
		if len(s.strs) > 0 {
			snap.Strs = make(map[string]string, len(s.strs))
			for k, v := range s.strs {
				snap.Strs[k] = v
			}
		}
		out.Spans[i] = snap
	}
	if !last.Before(t.start) {
		out.DurationMs = float64(last.Sub(t.start)) / float64(time.Millisecond)
	}
	return out
}

// Find returns the snapshots of every span with the given name, in start
// order. Convenience for tests asserting span attributes.
func (ts *TraceSnapshot) Find(name string) []SpanSnapshot {
	var out []SpanSnapshot
	for _, s := range ts.Spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// SortedIntKeys returns a span's integer attribute keys sorted, for
// deterministic rendering.
func (s SpanSnapshot) SortedIntKeys() []string {
	keys := make([]string, 0, len(s.Ints))
	for k := range s.Ints {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

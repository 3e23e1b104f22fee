package serve

import (
	"net/http"
	"testing"

	"waitfree/internal/engine"
)

// TestSolvePipelineBuildsAtMostOnce pins the request pipeline's build
// discipline through the handler: invalid specs are rejected without a
// build and leave no memo entry; a miss builds its task at most once; a
// warm hit builds nothing.
func TestSolvePipelineBuildsAtMostOnce(t *testing.T) {
	s, ts := newTestServer(t, engine.Options{}, Options{})
	eng := s.Engine()
	builds := func() int64 { return eng.Metrics().Counter("task_builds") }

	for _, q := range []string{
		"family=nonsense&procs=2",
		"family=consensus",
		"family=consensus&procs=5",
		"family=set-consensus&procs=3&k=0",
		"family=set-consensus&procs=3&k=4",
		"family=approx-agreement&d=0",
		"family=approx-agreement&d=33",
		"family=approx-agreement&procs=3&d=4",
		"family=approx-agreement-n&procs=2&d=9",
		"family=renaming&procs=3&m=2",
		"family=renaming&procs=2&m=9",
		"family=wsb&procs=64",
	} {
		if code, body := get(t, ts.URL+"/v1/solve?"+q); code != http.StatusBadRequest {
			t.Fatalf("%s: %d %s, want 400", q, code, body)
		}
	}
	if n := eng.FactsLen(); n != 0 {
		t.Fatalf("invalid specs left %d memo entries, want 0", n)
	}
	if b := builds(); b != 0 {
		t.Fatalf("invalid specs cost %d builds, want 0", b)
	}

	step := func(q string, maxBuilds int64) {
		t.Helper()
		before := builds()
		if code, body := get(t, ts.URL+"/v1/solve?"+q); code != http.StatusOK {
			t.Fatalf("%s: %d %s", q, code, body)
		}
		if d := builds() - before; d > maxBuilds {
			t.Fatalf("%s cost %d builds, want ≤ %d", q, d, maxBuilds)
		}
	}
	misses := []string{
		"family=consensus&procs=2&maxb=1",                     // first sight of the spec
		"family=consensus&procs=2&maxb=2",                     // memoised spec, new verdict
		"family=consensus&procs=2&maxb=1&model=1-resilient",   // same spec, other model
		"family=approx-agreement&procs=2&d=4&maxb=1",          // raw procs=2 ...
		"family=approx-agreement&d=4&maxb=2",                  // ... and procs=0 share one entry
		"family=set-consensus&procs=3&k=2&maxb=0&maxnodes=99", // new spec, new budget
	}
	for _, q := range misses {
		step(q, 1)
	}
	for round := 0; round < 5; round++ {
		for _, q := range misses {
			step(q, 0)
		}
	}
	if n := eng.FactsLen(); n != 3 {
		t.Fatalf("memo holds %d specs, want 3 (consensus, approx-agreement, set-consensus)", n)
	}
	if code, body := get(t, ts.URL+"/v1/solve?family=consensus&procs=2&model=3-concurrency"); code != http.StatusBadRequest {
		t.Fatalf("out-of-range model on a memoised spec: %d %s, want 400", code, body)
	}
}

package engine

import (
	"context"
	"encoding/base64"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
)

// Cache-key and artifact compatibility for the model parameter: wait-free
// queries must keep their exact pre-model identity — key bytes, JSON bytes,
// and spilled gob artifacts — while every other model (including the
// behavioral no-ops at the top of each parameter range, and strings that do
// not even parse) gets a key of its own. An unknown model aliasing the
// wait-free key would silently serve wait-free verdicts for a model the
// engine never checked; these tests are the regression fence.

// waitFreeConsensusKey is the verbatim key the pre-model engine derived for
// {consensus, 2 procs, maxb=1}: captured before the Model field existed.
// If this literal ever changes, every cache and spill directory in the
// field is invalidated — do not "fix" the constant, fix the drift.
const waitFreeConsensusKey = "solve:25c96104d656afd8d80d050305ee79d48bb9e64ccc764338d93b6034020e4857:maxb=1:maxnodes=0"

func consensusReq(model string) SolveRequest {
	return SolveRequest{Spec: TaskSpec{Family: "consensus", Procs: 2}, MaxLevel: 1, Model: model}
}

func TestSolveKeyWaitFreeByteCompat(t *testing.T) {
	if got := consensusReq("").Key(); got != waitFreeConsensusKey {
		t.Fatalf("absent model key drifted:\n got %s\nwant %s", got, waitFreeConsensusKey)
	}
	if got := consensusReq("wait-free").Key(); got != waitFreeConsensusKey {
		t.Fatalf("explicit wait-free key must equal the absent-model key, got %s", got)
	}
}

func TestSolveKeyModelsNeverAlias(t *testing.T) {
	keys := map[string]string{}
	for _, m := range []string{
		"0-resilient", "1-resilient", // 1-resilient: top of range for 2 procs — behavioral no-op, own key
		"1-concurrency", "2-concurrency",
		"1-set", "2-set",
		"1-byzantine", "t-resilient", "waitfree", // unparseable: marked verbatim suffix
	} {
		key := consensusReq(m).Key()
		if key == waitFreeConsensusKey {
			t.Errorf("model %q aliases the wait-free key", m)
		}
		if prev, dup := keys[key]; dup {
			t.Errorf("models %q and %q collide on key %s", prev, m, key)
		}
		keys[key] = m
	}
	if got, want := consensusReq("1-resilient").Key(), waitFreeConsensusKey+":model=1-resilient"; got != want {
		t.Errorf("canonical model suffix: got %s, want %s", got, want)
	}
	if got, want := consensusReq("1-byzantine").Key(), waitFreeConsensusKey+":model=!1-byzantine"; got != want {
		t.Errorf("unparseable model suffix: got %s, want %s", got, want)
	}
}

func TestUnknownModelErrInvalid(t *testing.T) {
	e := New(Options{})
	for _, m := range []string{
		"1-byzantine",   // unknown family
		"t-resilient",   // symbolic parameter
		"waitfree",      // not the canonical spelling
		"2-resilient",   // out of range: t ≤ procs−1 = 1
		"3-concurrency", // out of range: k ≤ procs = 2
		"0-set",         // out of range: k ≥ 1
	} {
		req := consensusReq(m)
		if _, err := e.Solve(context.Background(), req); !errors.Is(err, ErrInvalid) {
			t.Errorf("Solve(model=%q): want ErrInvalid, got %v", m, err)
		}
		// The admission path must reject before the key is ever used.
		if _, err := e.PrepareSolve(req); !errors.Is(err, ErrInvalid) {
			t.Errorf("PrepareSolve(model=%q): want ErrInvalid, got %v", m, err)
		}
	}
}

// TestModelQueriesCachedSeparately proves the keys matter: the same task
// under different models produces different verdicts from disjoint cache
// entries (0-resilient consensus is solvable where wait-free is not).
func TestModelQueriesCachedSeparately(t *testing.T) {
	e := New(Options{})
	ctx := context.Background()
	wf, err := e.Solve(ctx, consensusReq(""))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Solve(ctx, consensusReq("0-resilient"))
	if err != nil {
		t.Fatal(err)
	}
	if wf.Solvable || !res.Solvable || res.Level != 1 {
		t.Fatalf("wait-free (solvable=%v) vs 0-resilient (solvable=%v level=%d): want false / true@1",
			wf.Solvable, res.Solvable, res.Level)
	}
	if wf.Model != "" || res.Model != "0-resilient" {
		t.Fatalf("Model echo: wait-free %q (want empty), 0-resilient %q", wf.Model, res.Model)
	}
	// A behavioral no-op model (top of range) still caches under its own
	// key and echoes its own name.
	noop, err := e.Solve(ctx, consensusReq("1-resilient"))
	if err != nil {
		t.Fatal(err)
	}
	if noop.Solvable != wf.Solvable || noop.Nodes != wf.Nodes {
		t.Fatalf("1-resilient for 2 procs must match wait-free behavior: %+v vs %+v", noop, wf)
	}
	if noop == wf {
		t.Fatal("no-op model returned the wait-free cache object — keys aliased")
	}
	if noop.Model != "1-resilient" {
		t.Fatalf("no-op model echo: %q", noop.Model)
	}
}

// TestPR8ArtifactDecodeCompat decodes a SolveResponse gob captured from the
// engine before the Model field existed and requires (1) the decode
// succeeds — gob tolerates the added field, so spilled pre-model caches
// rehydrate, (2) the decoded artifact reads as wait-free (Model empty), and
// (3) today's engine produces the identical response for the same request.
func TestPR8ArtifactDecodeCompat(t *testing.T) {
	raw, err := os.ReadFile("testdata/solve_response_pr8.gob.b64")
	if err != nil {
		t.Fatal(err)
	}
	data, err := base64.StdEncoding.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("artifact is not base64: %v", err)
	}
	var decoded SolveResponse
	if err := gobDecode(data, &decoded); err != nil {
		t.Fatalf("pre-model artifact no longer decodes: %v", err)
	}
	if decoded.Model != "" {
		t.Fatalf("pre-model artifact decoded with Model=%q, want empty", decoded.Model)
	}
	live, err := New(Options{}).Solve(context.Background(), consensusReq(""))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*live, decoded) {
		t.Fatalf("live wait-free response diverged from the PR-8 artifact:\n live %+v\n PR-8 %+v", *live, decoded)
	}
}

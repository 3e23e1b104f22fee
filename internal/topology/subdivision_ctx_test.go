package topology

import (
	"context"
	"errors"
	"testing"

	"waitfree/internal/obs"
)

// TestSDSCtxMatchesSequential pins that the ctx-aware path is
// output-identical to the construction without a context when not canceled.
func TestSDSCtxMatchesSequential(t *testing.T) {
	base := Simplex(2)
	got, err := SDSCtx(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	complexesIdentical(t, SDS(base), got)
	got2, err := SDSCtx(context.Background(), got)
	if err != nil {
		t.Fatal(err)
	}
	complexesIdentical(t, SDSPow(base, 2), got2)
}

// TestSDSCtxCanceled pins the abort path: a context dead on arrival stops
// the construction with an error wrapping the context error.
func TestSDSCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SDSCtx(ctx, Simplex(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want an error wrapping context.Canceled", err)
	}
}

// pollCtx is a context that reads as live for its first live Err polls and
// as canceled from then on, so a test can cancel at an exact checkpoint.
type pollCtx struct {
	context.Context
	live, polls int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls > c.live {
		return context.Canceled
	}
	return nil
}

// TestSDSCtxCanceledMidBuild cancels part-way through a level with 5,625
// source facets: the build must stop at the first checkpoint that sees the
// cancellation, not run to the end, and its span must say so.
func TestSDSCtxCanceledMidBuild(t *testing.T) {
	src := SDSPow(Simplex(3), 2)
	if n := len(src.Facets()); n != 5625 {
		t.Fatalf("SDS²(s³) has %d facets, want 5625", n)
	}
	const live = 10 // 10·ctxCheckInterval = 640 facets built before the cancel
	tr := obs.NewTrace()
	ctx := &pollCtx{Context: obs.WithTrace(context.Background(), tr), live: live}
	if _, err := SDSCtx(ctx, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want an error wrapping context.Canceled", err)
	}
	if ctx.polls != live+1 {
		t.Fatalf("build polled ctx %d times, want %d (it must stop at the first canceled poll)", ctx.polls, live+1)
	}
	spans := tr.Snapshot().Find("sds.subdivide")
	if len(spans) != 1 {
		t.Fatalf("%d sds.subdivide spans, want 1", len(spans))
	}
	if got := spans[0].Strs["error"]; got != "canceled" {
		t.Fatalf("span error attribute %q, want \"canceled\"", got)
	}
	if _, ok := spans[0].Ints["facets_out"]; ok {
		t.Fatal("a canceled build must not report facets_out")
	}
}

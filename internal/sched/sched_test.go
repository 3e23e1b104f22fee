package sched

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// runCounter drives procs processes, each passing points step points and
// counting its completed segments, under the given controller settings. It
// returns the controller (for post-run inspection), the per-process progress
// counters, and Wait's verdict.
func runCounter(adv Adversary, crashAt []int, procs, points, maxSteps int) (*Controller, []int, error) {
	ctl := New(Config{Procs: procs, Adversary: adv, CrashAt: crashAt, MaxSteps: maxSteps})
	progress := make([]int, procs)
	for i := 0; i < procs; i++ {
		ctl.Go(i, func() {
			for s := 0; s < points; s++ {
				ctl.Step()
				progress[i]++
			}
		})
	}
	return ctl, progress, ctl.Wait()
}

func TestRoundRobinTraceIsCyclic(t *testing.T) {
	ctl, progress, err := runCounter(NewRoundRobin(), nil, 3, 2, 0)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	// Each process needs points+1 grants (initial segment, one per step
	// point); round-robin interleaves them cyclically.
	want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	if got := ctl.Trace(); !reflect.DeepEqual(got, want) {
		t.Fatalf("trace = %v, want %v", got, want)
	}
	if want := []int{2, 2, 2}; !reflect.DeepEqual(progress, want) {
		t.Fatalf("progress = %v, want %v", progress, want)
	}
	for p := 0; p < 3; p++ {
		if ctl.StatusOf(p) != StatusDone {
			t.Fatalf("P%d status = %v, want done", p, ctl.StatusOf(p))
		}
	}
}

func TestRandomScheduleIsReproducible(t *testing.T) {
	const seed = 42
	run := func() []int {
		ctl, _, err := runCounter(NewRandom(seed), nil, 4, 5, 0)
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		return ctl.Trace()
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same seed, different traces:\n%v\n%v", first, second)
	}
	ctl, _, err := runCounter(NewRandom(seed+1), nil, 4, 5, 0)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if reflect.DeepEqual(first, ctl.Trace()) {
		t.Fatalf("seeds %d and %d produced the same trace %v", seed, seed+1, first)
	}
}

func TestCrashInjectionStopsMidProtocol(t *testing.T) {
	// P1 crashes the moment it attempts its 2nd step (0-based index 2): it
	// has completed exactly two segments, i.e. one progress increment.
	ctl, progress, err := runCounter(NewRoundRobin(), []int{-1, 2, -1}, 3, 2, 0)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if !ctl.Crashed(1) {
		t.Fatalf("P1 status = %v, want crashed", ctl.StatusOf(1))
	}
	if want := []int{2, 1, 2}; !reflect.DeepEqual(progress, want) {
		t.Fatalf("progress = %v, want %v", progress, want)
	}
	for _, p := range []int{0, 2} {
		if ctl.StatusOf(p) != StatusDone {
			t.Fatalf("P%d status = %v, want done", p, ctl.StatusOf(p))
		}
	}
}

func TestCrashAtZeroRunsNoCode(t *testing.T) {
	ctl, progress, err := runCounter(NewRoundRobin(), []int{0, -1}, 2, 3, 0)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if !ctl.Crashed(0) || progress[0] != 0 {
		t.Fatalf("P0 (crashAt=0): status %v, progress %d; want crashed, 0", ctl.StatusOf(0), progress[0])
	}
	if ctl.StatusOf(1) != StatusDone || progress[1] != 3 {
		t.Fatalf("P1: status %v, progress %d; want done, 3", ctl.StatusOf(1), progress[1])
	}
}

func TestBudgetErrorOnLivelock(t *testing.T) {
	ctl := New(Config{Procs: 2, Adversary: NewRoundRobin(), MaxSteps: 100})
	ctl.Go(0, func() {
		for {
			ctl.Step() // never finishes
		}
	})
	ctl.Go(1, func() {})
	err := ctl.Wait()
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("Wait = %v, want *BudgetError", err)
	}
	if be.MaxSteps != 100 || !reflect.DeepEqual(be.Starved, []int{0}) {
		t.Fatalf("BudgetError = %+v, want MaxSteps=100 Starved=[0]", be)
	}
	if !ctl.Crashed(0) || ctl.StatusOf(1) != StatusDone {
		t.Fatalf("statuses = %v/%v, want crashed/done", ctl.StatusOf(0), ctl.StatusOf(1))
	}
	if !strings.Contains(err.Error(), "step budget 100") {
		t.Fatalf("error %q does not name the budget", err)
	}
}

func TestSoloStarvesAWaitingPeer(t *testing.T) {
	// P0 spins until P1 raises a flag. Solo-0 never schedules P1, so the
	// budget fail-stops both; round-robin completes the same program.
	run := func(adv Adversary) error {
		ctl := New(Config{Procs: 2, Adversary: adv, MaxSteps: 200})
		flag := false
		ctl.Go(0, func() {
			for !flag {
				ctl.Step()
			}
		})
		ctl.Go(1, func() {
			ctl.Step()
			flag = true
		})
		return ctl.Wait()
	}
	var be *BudgetError
	if err := run(NewSolo(0)); !errors.As(err, &be) {
		t.Fatalf("solo-0: Wait = %v, want *BudgetError", err)
	}
	if err := run(NewRoundRobin()); err != nil {
		t.Fatalf("round-robin: Wait = %v, want nil", err)
	}
}

func TestStepIsPassThroughAfterWait(t *testing.T) {
	ctl, _, err := runCounter(NewRoundRobin(), nil, 2, 1, 0)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	done := make(chan struct{})
	go func() {
		ctl.Step() // must not block: the schedule is over
		close(done)
	}()
	<-done
}

func TestAdversaryRegistry(t *testing.T) {
	const n = 3
	valid := []string{"round-robin", "random", "solo-0", "solo-2", "block-1", "block-2", "priority-inversion", "laggard"}
	for _, name := range valid {
		adv, err := NewAdversary(name, 7, n)
		if err != nil {
			t.Fatalf("NewAdversary(%q): %v", name, err)
		}
		if name != "random" && adv.Name() != name {
			t.Fatalf("NewAdversary(%q).Name() = %q, want the registry name back", name, adv.Name())
		}
	}
	for _, name := range []string{"bogus", "solo-3", "solo-x", "block-3", "block--1"} {
		if _, err := NewAdversary(name, 7, n); err == nil {
			t.Fatalf("NewAdversary(%q) succeeded, want error", name)
		}
	}
	if got := len(TestAdversaries(n, 7)); got != 4+n+(n-1) {
		t.Fatalf("TestAdversaries(%d) has %d members, want %d", n, got, 4+n+(n-1))
	}
}

func TestRandomNameEmbedsSeed(t *testing.T) {
	if got := NewRandom(99).Name(); got != "random(seed=99)" {
		t.Fatalf("Name = %q", got)
	}
}

func TestExploreEnumeratesAllInterleavings(t *testing.T) {
	// Two processes with one step point each: two segments per process, so
	// the complete schedules are the interleavings of AABB — C(4,2) = 6.
	traces := map[string]bool{}
	count, err := Explore(0, func(adv *Replay) error {
		ctl := New(Config{Procs: 2, Adversary: adv})
		for i := 0; i < 2; i++ {
			ctl.Go(i, func() { ctl.Step() })
		}
		if err := ctl.Wait(); err != nil {
			return err
		}
		key := ""
		for _, p := range ctl.Trace() {
			key += string(rune('A' + p))
		}
		traces[key] = true
		return nil
	})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if count != 6 || len(traces) != 6 {
		t.Fatalf("Explore ran %d schedules over %d distinct traces, want 6/6: %v", count, len(traces), traces)
	}
}

func TestExploreLimitReportsTruncation(t *testing.T) {
	_, err := Explore(2, func(adv *Replay) error {
		ctl := New(Config{Procs: 2, Adversary: adv})
		for i := 0; i < 2; i++ {
			ctl.Go(i, func() { ctl.Step() })
		}
		return ctl.Wait()
	})
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("Explore with limit 2 = %v, want truncation error", err)
	}
}

func TestGroupLiveModeRunsPlainGoroutines(t *testing.T) {
	grp := NewGroup(nil)
	hits := make([]int, 3)
	for i := 0; i < 3; i++ {
		grp.Go(i, func() { hits[i] = 1 })
	}
	if err := grp.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if !reflect.DeepEqual(hits, []int{1, 1, 1}) {
		t.Fatalf("hits = %v", hits)
	}
	if grp.Controller() != nil {
		t.Fatal("live group reports a controller")
	}
}

// pickCall is one Adversary.Pick call: its arguments, copied.
type pickCall struct{ ready, steps []int }

// recorder wraps an adversary and records every Pick call. The controller
// reuses its ready buffer between decisions, so the arguments are copied.
type recorder struct {
	Adversary
	calls []pickCall
}

func (r *recorder) Pick(ready, steps []int) int {
	r.calls = append(r.calls, pickCall{slices.Clone(ready), slices.Clone(steps)})
	return r.Adversary.Pick(ready, steps)
}

func TestPickOncePerDecision(t *testing.T) {
	call := func(ready, steps []int) pickCall { return pickCall{ready, steps} }
	cases := []struct {
		name     string
		adv      Adversary
		crashAt  []int
		procs    int
		points   int
		maxSteps int
		calls    []pickCall
		trace    []int
		starved  []int // nil = Wait returns nil
	}{
		{"round-robin", NewRoundRobin(), nil, 2, 1, 0, []pickCall{
			call([]int{0, 1}, []int{0, 0}),
			call([]int{0, 1}, []int{1, 0}),
			call([]int{0, 1}, []int{1, 1}),
			call([]int{1}, []int{2, 1}),
		}, []int{0, 1, 0, 1}, nil},
		// The laggard keeps the token holder running: decisions 2, 3, 5 and
		// 6 are taken inline by the process that keeps running.
		{"laggard", Laggard{}, nil, 2, 2, 0, []pickCall{
			call([]int{0, 1}, []int{0, 0}),
			call([]int{0, 1}, []int{1, 0}),
			call([]int{0, 1}, []int{2, 0}),
			call([]int{1}, []int{3, 0}),
			call([]int{1}, []int{3, 1}),
			call([]int{1}, []int{3, 2}),
		}, []int{0, 0, 0, 1, 1, 1}, nil},
		// P0 kills P1 on the decision that picks it at its crash step: a
		// Pick with no grant.
		{"crash-other", NewRoundRobin(), []int{-1, 1}, 2, 2, 0, []pickCall{
			call([]int{0, 1}, []int{0, 0}),
			call([]int{0, 1}, []int{1, 0}),
			call([]int{0, 1}, []int{1, 1}),
			call([]int{0, 1}, []int{2, 1}),
			call([]int{0}, []int{2, 1}),
		}, []int{0, 1, 0, 0}, nil},
		// P0 picks itself at its crash step, unwinds, and hands on.
		{"crash-self", Laggard{}, []int{2, -1}, 2, 2, 0, []pickCall{
			call([]int{0, 1}, []int{0, 0}),
			call([]int{0, 1}, []int{1, 0}),
			call([]int{0, 1}, []int{2, 0}),
			call([]int{1}, []int{2, 0}),
			call([]int{1}, []int{2, 1}),
			call([]int{1}, []int{2, 2}),
		}, []int{0, 0, 1, 1, 1}, nil},
		// The budget trips with the holder in the ready set: no Pick.
		{"budget", Laggard{}, nil, 2, 5, 4, []pickCall{
			call([]int{0, 1}, []int{0, 0}),
			call([]int{0, 1}, []int{1, 0}),
			call([]int{0, 1}, []int{2, 0}),
			call([]int{0, 1}, []int{3, 0}),
		}, []int{0, 0, 0, 0}, []int{0, 1}},
		// The holder P1 sits between the other starved processes: P0 is
		// killed before P1 unwinds, P2 after.
		{"budget-middle", NewSolo(1), nil, 3, 5, 3, []pickCall{
			call([]int{0, 1, 2}, []int{0, 0, 0}),
			call([]int{0, 1, 2}, []int{0, 1, 0}),
			call([]int{0, 1, 2}, []int{0, 2, 0}),
		}, []int{1, 1, 1}, []int{0, 1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recorder{Adversary: tc.adv}
			ctl, _, err := runCounter(rec, tc.crashAt, tc.procs, tc.points, tc.maxSteps)
			if !reflect.DeepEqual(rec.calls, tc.calls) {
				t.Errorf("Pick calls = %v, want %v", rec.calls, tc.calls)
			}
			if got := ctl.Trace(); !reflect.DeepEqual(got, tc.trace) {
				t.Errorf("trace = %v, want %v", got, tc.trace)
			}
			var be *BudgetError
			switch {
			case tc.starved == nil && err != nil:
				t.Errorf("Wait = %v, want nil", err)
			case tc.starved != nil && !errors.As(err, &be):
				t.Errorf("Wait = %v, want *BudgetError", err)
			case tc.starved != nil && !reflect.DeepEqual(be.Starved, tc.starved):
				t.Errorf("Starved = %v, want %v", be.Starved, tc.starved)
			}
			for _, p := range tc.starved {
				if !ctl.Crashed(p) {
					t.Errorf("P%d status = %v, want crashed", p, ctl.StatusOf(p))
				}
			}
		})
	}
}

// TestBudgetStarvedOwnsItsSlice: the ready set the controller hands the
// adversary is a reused buffer; the BudgetError must not alias it.
func TestBudgetStarvedOwnsItsSlice(t *testing.T) {
	ctl, _, err := runCounter(NewSolo(1), nil, 3, 5, 3)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("Wait = %v, want *BudgetError", err)
	}
	if cap(ctl.ready) > 0 && &be.Starved[0] == &ctl.ready[:1][0] {
		t.Fatal("Starved shares its backing array with the ready buffer")
	}
	// Later decisions rewrote the buffer (P2 alone was ready after P1
	// unwound); Starved must still be the set at exhaustion.
	if !reflect.DeepEqual(be.Starved, []int{0, 1, 2}) {
		t.Fatalf("Starved = %v, want [0 1 2]", be.Starved)
	}
}

// TestSameProcessStepsDoNotAllocate: a schedule that keeps one process
// running costs no allocation per step — the ready set is a reused buffer
// and the trace is run-length encoded — so the laggard counter allocates
// as much over 10000 steps per process as over 100.
func TestSameProcessStepsDoNotAllocate(t *testing.T) {
	allocs := func(points int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, _, err := runCounter(Laggard{}, nil, 2, points, -1); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(100), allocs(10000)
	if long > short {
		t.Fatalf("10000 steps per process: %.0f allocs, 100 steps: %.0f; want no growth", long, short)
	}
}

func TestTraceRunLengthRoundTrip(t *testing.T) {
	ctl, _, err := runCounter(Laggard{}, nil, 3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 1, 1, 1, 2, 2, 2}
	if got := ctl.Trace(); !reflect.DeepEqual(got, want) {
		t.Fatalf("trace = %v, want %v", got, want)
	}
	for k := 0; k <= len(want)+1; k++ {
		got := ctl.TracePrefix(k)
		wantK := want[:min(k, len(want))]
		if k == 0 {
			wantK = nil
		}
		if !reflect.DeepEqual(got, wantK) {
			t.Fatalf("TracePrefix(%d) = %v, want %v", k, got, wantK)
		}
	}
	// Crashing every process before its first step leaves no trace: nil,
	// so a response built from it encodes trace_prefix as null.
	ctl, _, err = runCounter(NewRoundRobin(), []int{0, 0}, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := ctl.TracePrefix(48); got != nil {
		t.Fatalf("empty schedule: TracePrefix = %#v, want nil", got)
	}
}

// badPick picks a process outside the ready set at its after-th decision.
type badPick struct {
	RoundRobin
	after, n int
}

func (b *badPick) Pick(ready, steps []int) int {
	if b.n++; b.n > b.after {
		return 99
	}
	return b.RoundRobin.Pick(ready, steps)
}

// TestAdversaryOutsideReadySetPanics: a broken adversary panics on Wait's
// goroutine with the ready set in the message, whether the bad decision is
// the first (taken by Wait) or a later one (taken by a process).
func TestAdversaryOutsideReadySetPanics(t *testing.T) {
	for _, after := range []int{0, 3} {
		func() {
			adv := &badPick{RoundRobin: RoundRobin{last: -1}, after: after}
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "sched: adversary round-robin picked 99, not in ready set [0 1]") {
					t.Errorf("after %d good picks: panic %q, want the out-of-ready-set message", after, msg)
				}
			}()
			runCounter(adv, nil, 2, 5, 0)
		}()
	}
}

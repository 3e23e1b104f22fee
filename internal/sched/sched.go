// Package sched is a deterministic adversarial scheduler for the repo's
// concurrent runtimes.
//
// Wait-freedom is a claim about *every* schedule and *every* crash pattern,
// but goroutine code normally sees only the interleavings the live Go
// scheduler happens to produce. This package closes that gap: runtimes are
// parameterized over a small step-point interface (Gate), and a Controller
// serializes their goroutines into one explicitly chosen interleaving —
// seeded pseudo-random, or one of a catalogue of adversary strategies — with
// crash-fault injection at chosen steps. Schedules are fully reproducible
// from (adversary name, seed, crash vector), so a failing schedule is a
// regression test.
//
// # The step-point interface
//
// Instrumented code calls Point(gate) at each shared-memory step point. A
// nil gate is a no-op, so production paths pay one nil check and otherwise
// run on the live Go scheduler unchanged. Under a Controller, Point returns
// only when the adversary grants the caller its next step; between two
// grants exactly one process runs, so the code between consecutive step
// points executes atomically with respect to the other controlled processes.
//
// # Mechanics and invariants
//
// A single token passes between goroutines, and whoever holds it consults
// the Adversary for the next step: Wait for the first, then each process at
// its step points (and when it finishes or crashes). A process the
// adversary picks again keeps running without a goroutine switch; any
// other pick hands the token straight to that process. Crashes are
// injected by poisoning a grant, or by the picked holder itself: the
// victim's Step call panics with a private sentinel that the Go wrapper
// recovers, turning the goroutine into a fail-stopped process
// mid-protocol — exactly the wait-free adversary of the paper. A crash
// always unwinds completely before the next decision.
//
// Two rules keep this sound:
//
//   - controlled goroutines must be spawned with Controller.Go (or
//     Group.Go) and must reach step points only from that goroutine;
//   - no step point may execute while holding a lock another controlled
//     process can block on (otherwise the token holder could deadlock the
//     schedule). The instrumented packages in this repo observe this.
//
// A step budget (Config.MaxSteps) bounds runs of algorithms that are *not*
// wait-free under the chosen adversary: when the budget is exhausted every
// still-live process is crashed and Wait returns a *BudgetError — which is
// precisely how a test observes "this algorithm does not terminate under
// this schedule".
package sched

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
)

// Gate is the step-point interface the concurrent runtimes are parameterized
// over. Step is called at each shared-memory step point; implementations may
// park the caller (Controller) or do nothing (live execution).
type Gate interface {
	Step()
}

// Point invokes g.Step() when g is non-nil. It is the instrumentation
// helper: a nil gate (the default everywhere) costs one branch.
func Point(g Gate) {
	if g != nil {
		g.Step()
	}
}

// Yield is Point for spin loops: under a controller it parks at the gate;
// live, it yields the Go scheduler so peers can make progress.
func Yield(g Gate) {
	if g != nil {
		g.Step()
		return
	}
	runtime.Gosched()
}

// crashSignal is the sentinel panic that fail-stops a process. poisoned
// marks a crash delivered through a grant by another token holder, as
// opposed to one the process took on itself while holding the token.
type crashSignal struct {
	proc     int
	poisoned bool
}

// Status of a controlled process.
type Status int

// Process states, in lifecycle order.
const (
	StatusNotStarted Status = iota
	StatusReady             // parked at a step point, eligible to run
	StatusRunning           // holds the token
	StatusDone              // body returned
	StatusCrashed           // fail-stopped by injection or budget exhaustion
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusNotStarted:
		return "not-started"
	case StatusReady:
		return "ready"
	case StatusRunning:
		return "running"
	case StatusDone:
		return "done"
	case StatusCrashed:
		return "crashed"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Config configures a Controller.
type Config struct {
	Procs     int       // number of process slots (ids 0 … Procs-1)
	Adversary Adversary // scheduling strategy; nil = RoundRobin

	// CrashAt[i] ≥ 0 fail-stops process i the moment it attempts its
	// CrashAt[i]-th step (0-based: CrashAt[i] = 0 crashes it before it
	// executes any code). Negative or missing = never.
	CrashAt []int

	// MaxSteps bounds the total number of granted steps; once exceeded,
	// every live process is crashed and Wait returns a *BudgetError. 0
	// means DefaultMaxSteps; negative means unlimited.
	MaxSteps int
}

// DefaultMaxSteps is the schedule budget applied when Config.MaxSteps is 0 —
// generous enough for every wait-free runtime in this repo at test sizes,
// small enough to turn an un-scheduled livelock into a crisp error.
const DefaultMaxSteps = 1 << 20

// Controller serializes controlled goroutines into one deterministic
// schedule. It implements Gate; pass it (or hand it to SetGate hooks) as the
// step-point sink of the runtime under test. A Controller is single-use:
// spawn with Go, run the schedule with Wait, then inspect.
//
// The scheduling decisions are taken by whichever goroutine holds the token
// (see next), so every field below is written only by the token holder;
// the channel operations that move the token order those writes.
type Controller struct {
	n        int
	adv      Adversary
	crashAt  []int
	maxSteps int

	gates  []chan bool // per-process grant; false poisons the grant (crash)
	parked chan int    // initial parks, and acks of crashed processes
	done   chan struct{}

	current  int // token holder, valid between grant and its next step point
	steps    []int
	total    int
	status   []Status
	spawned  int
	ready    []int      // readyProcs' buffer, reused every decision
	trace    []traceRun // granted process sequence, run-length encoded
	err      error      // *BudgetError once the budget tripped
	misuse   string     // set when the adversary broke its contract
	finished atomic.Bool
}

// traceRun is n consecutive grants to proc.
type traceRun struct{ proc, n int }

// New returns a Controller for cfg.
func New(cfg Config) *Controller {
	if cfg.Procs <= 0 {
		panic(fmt.Sprintf("sched: New with Procs=%d", cfg.Procs))
	}
	adv := cfg.Adversary
	if adv == nil {
		adv = NewRoundRobin()
	}
	crashAt := make([]int, cfg.Procs)
	for i := range crashAt {
		crashAt[i] = -1
		if cfg.CrashAt != nil && i < len(cfg.CrashAt) {
			crashAt[i] = cfg.CrashAt[i]
		}
	}
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	c := &Controller{
		n:        cfg.Procs,
		adv:      adv,
		crashAt:  crashAt,
		maxSteps: maxSteps,
		gates:    make([]chan bool, cfg.Procs),
		parked:   make(chan int, cfg.Procs),
		done:     make(chan struct{}),
		current:  -1,
		steps:    make([]int, cfg.Procs),
		status:   make([]Status, cfg.Procs),
		ready:    make([]int, 0, cfg.Procs),
	}
	for i := range c.gates {
		c.gates[i] = make(chan bool)
	}
	return c
}

// Go spawns body as controlled process proc. The goroutine parks before
// executing any of body; it runs only once the schedule grants it. All Go
// calls must precede Wait.
func (c *Controller) Go(proc int, body func()) {
	if proc < 0 || proc >= c.n {
		panic(fmt.Sprintf("sched: Go with proc %d out of range [0,%d)", proc, c.n))
	}
	if c.status[proc] != StatusNotStarted {
		panic(fmt.Sprintf("sched: process %d spawned twice", proc))
	}
	c.status[proc] = StatusReady // set before the goroutine races anywhere
	c.spawned++
	go func() {
		defer func() {
			if r := recover(); r != nil {
				sig, ok := r.(crashSignal)
				if !ok {
					panic(r)
				}
				if sig.poisoned {
					// The token holder that poisoned the grant waits for this
					// ack; it keeps the token.
					c.parked <- proc
					return
				}
				// Crashed by its own decision: the token is still ours, and
				// the goroutine has unwound, so the schedule may go on.
				c.status[proc] = StatusCrashed
				c.next(proc)
			}
		}()
		// Initial park: wait for the first grant before touching body.
		c.parked <- proc
		if alive := <-c.gates[proc]; !alive {
			panic(crashSignal{proc: proc, poisoned: true})
		}
		body()
		c.status[proc] = StatusDone
		c.next(proc)
	}()
}

// Step implements Gate. It must be called from the goroutine currently
// holding the token. The caller becomes ready and takes the next scheduling
// decision itself: when the adversary picks it again it keeps running with
// no goroutine switch; otherwise it hands the token over and parks until
// its next grant. After Wait has returned, Step is a pass-through no-op so
// post-run inspection code can reuse gated objects.
func (c *Controller) Step() {
	if c.finished.Load() {
		return
	}
	me := c.current
	c.status[me] = StatusReady
	switch c.next(me) {
	case keepRunning:
		return
	case crashSelf:
		panic(crashSignal{proc: me})
	}
	if alive := <-c.gates[me]; !alive {
		panic(crashSignal{proc: me, poisoned: true})
	}
}

// Wait runs the schedule to completion. It rendezvouses with every spawned
// process, takes the first scheduling decision, and then waits while the
// processes pass the token among themselves. It returns nil when every
// process is done or crashed by plan, and a *BudgetError when MaxSteps ran
// out (after crashing all survivors so their goroutines exit).
func (c *Controller) Wait() error {
	defer c.finished.Store(true)
	// Rendezvous: every spawned process parks before the first decision, so
	// the initial ready set — and hence the whole schedule — is independent
	// of OS scheduling.
	for parked := 0; parked < c.spawned; parked++ {
		<-c.parked
	}
	c.next(-1)
	<-c.done
	if c.misuse != "" {
		panic(c.misuse)
	}
	return c.err
}

// decision is what next leaves its caller to do.
type decision int

const (
	handedOff   decision = iota // the token left the caller, or the schedule ended
	keepRunning                 // the caller was granted the next step
	crashSelf                   // the caller must fail-stop, then call next again
)

// next takes scheduling decisions on behalf of the token holder me (-1 for
// Wait) until the token leaves it. Each decision asks the adversary exactly
// once, with the same ready set and step counts a central scheduler would
// pass. Crashes of other processes and the budget's kills are synchronous:
// the victim unwinds completely before the next decision. me itself cannot
// be killed from here, so when it must crash, next returns crashSelf and
// the caller re-enters after unwinding.
func (c *Controller) next(me int) decision {
	for {
		ready := c.readyProcs()
		if len(ready) == 0 {
			close(c.done)
			return handedOff
		}
		if c.maxSteps >= 0 && c.total >= c.maxSteps {
			if c.err == nil {
				c.err = &BudgetError{MaxSteps: c.maxSteps, Steps: c.StepCounts(), Starved: slices.Clone(ready)}
			}
			// Ascending order, as ready is: the processes after me are
			// crashed when me re-enters here after unwinding.
			for _, p := range ready {
				if p == me {
					return crashSelf
				}
				c.kill(p)
			}
			continue
		}
		p := c.adv.Pick(ready, c.steps)
		if !slices.Contains(ready, p) {
			// Surface the panic on Wait's goroutine, as a central
			// scheduler would; the processes stay parked.
			c.misuse = fmt.Sprintf("sched: adversary %s picked %d, not in ready set %v", c.adv.Name(), p, ready)
			close(c.done)
			return handedOff
		}
		if c.crashAt[p] >= 0 && c.steps[p] >= c.crashAt[p] {
			if p == me {
				return crashSelf
			}
			c.kill(p)
			continue
		}
		c.steps[p]++
		c.total++
		if last := len(c.trace) - 1; last >= 0 && c.trace[last].proc == p {
			c.trace[last].n++
		} else {
			c.trace = append(c.trace, traceRun{p, 1})
		}
		c.status[p] = StatusRunning
		if p == me {
			return keepRunning
		}
		c.current = p
		c.gates[p] <- true
		return handedOff
	}
}

// kill poisons parked process p's grant and waits for its goroutine to
// unwind.
func (c *Controller) kill(p int) {
	c.gates[p] <- false
	if q := <-c.parked; q != p {
		// Only p can report here (it alone was signalled); anything else is
		// a misuse of the controller.
		panic(fmt.Sprintf("sched: unexpected event from P%d while crashing P%d", q, p))
	}
	c.status[p] = StatusCrashed
}

// readyProcs lists the ready processes in ascending order, in a buffer the
// next call overwrites.
func (c *Controller) readyProcs() []int {
	c.ready = c.ready[:0]
	for i, s := range c.status {
		if s == StatusReady {
			c.ready = append(c.ready, i)
		}
	}
	return c.ready
}

// StepCounts returns a copy of the per-process granted-step counts.
func (c *Controller) StepCounts() []int {
	return append([]int(nil), c.steps...)
}

// TotalSteps returns the number of steps granted so far.
func (c *Controller) TotalSteps() int { return c.total }

// StatusOf returns process p's lifecycle status.
func (c *Controller) StatusOf(p int) Status { return c.status[p] }

// Crashed reports whether process p was fail-stopped.
func (c *Controller) Crashed(p int) bool { return c.status[p] == StatusCrashed }

// Trace returns the granted-process sequence — the schedule actually
// executed. Two runs with the same adversary state, crash vector, and
// deterministic bodies produce identical traces; tests assert this.
func (c *Controller) Trace() []int {
	return c.TracePrefix(c.total)
}

// TracePrefix returns the first k entries of Trace (all of it when k is
// larger), nil when the trace is empty.
func (c *Controller) TracePrefix(k int) []int {
	k = min(k, c.total)
	if k <= 0 {
		return nil
	}
	out := make([]int, 0, k)
	for _, r := range c.trace {
		for range min(r.n, k-len(out)) {
			out = append(out, r.proc)
		}
		if len(out) == k {
			break
		}
	}
	return out
}

// BudgetError reports a schedule that exhausted its step budget: under the
// chosen adversary and crash pattern, the starved processes never finished —
// the observable signature of a non-wait-free execution.
type BudgetError struct {
	MaxSteps int
	Steps    []int
	Starved  []int // processes crashed by the budget, not by plan
}

// Error renders the budget violation with the per-process step counts.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("sched: step budget %d exhausted; processes %v never finished (per-process steps %v)",
		e.MaxSteps, e.Starved, e.Steps)
}

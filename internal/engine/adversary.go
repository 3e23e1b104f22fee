package engine

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"waitfree/internal/bg"
	"waitfree/internal/core"
	"waitfree/internal/protocol"
	"waitfree/internal/sched"
	"waitfree/internal/tasks"
)

// tracePrefixLen bounds how much of the schedule trace a response carries.
const tracePrefixLen = 48

// AdversaryAlgos lists the runtimes RunAdversary can schedule.
func AdversaryAlgos() []string {
	return []string{"commitadopt", "setconsensus", "renaming", "renaming-emulated", "approx", "fullinfo", "bg"}
}

// RunAdversary replays one concurrent runtime under a deterministic
// adversary schedule with optional crash injection and validates the
// outcome. The same request always reproduces the same execution — which is
// why the engine may cache the response by content address.
func RunAdversary(req AdversaryRequest) (*AdversaryResponse, error) {
	n := req.Procs
	if n < 1 {
		return nil, fmt.Errorf("%w: need at least one process", ErrInvalid)
	}
	if n > 8 {
		return nil, fmt.Errorf("%w: procs=%d out of range [1,8]", ErrInvalid, n)
	}
	if len(req.Crash) != 0 && len(req.Crash) != n {
		return nil, fmt.Errorf("%w: crash vector has %d entries for %d processes", ErrInvalid, len(req.Crash), n)
	}
	adv, err := sched.NewAdversary(req.Adversary, req.Seed, n)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	ctl := sched.New(sched.Config{Procs: n, Adversary: adv, CrashAt: req.Crash, MaxSteps: req.MaxSteps})

	var outcome, memories string
	var runErr error
	switch req.Algo {
	case "commitadopt":
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = 10 * (1 + i%2) // mixed inputs: commit is not forced
		}
		var out []tasks.CADecision
		out, runErr = tasks.RunCommitAdopt(inputs, nil, sched.Under(ctl))
		if runErr == nil {
			if err := tasks.ValidateCommitAdopt(inputs, out); err != nil {
				return nil, err
			}
		}
		parts := make([]string, len(out))
		for i, d := range out {
			switch {
			case !d.Decided:
				parts[i] = "crashed"
			case d.Committed:
				parts[i] = fmt.Sprintf("COMMIT %d", d.Val)
			default:
				parts[i] = fmt.Sprintf("adopt %d", d.Val)
			}
		}
		outcome = strings.Join(parts, ", ")
		memories = "2 atomic snapshot objects (register granularity)"
	case "setconsensus":
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = i + 1
		}
		f := crashCount(req.Crash)
		if f == 0 {
			f = 1
		}
		var res *tasks.SetConsensusResult
		res, runErr = tasks.RunFResilientSetConsensus(inputs, f, nil, sched.Under(ctl))
		if res != nil {
			if err := tasks.ValidateSetConsensus(inputs, res, f+1); err != nil {
				return nil, err
			}
			outcome = fmt.Sprintf("decisions=%v scans=%v (f=%d, ≤%d distinct)", res.Decisions, res.Scans, f, f+1)
		}
		memories = "1 atomic snapshot object (register granularity)"
	case "renaming":
		var res *tasks.RenamingResult
		res, runErr = tasks.RunRenaming(n, nil, nil, sched.Under(ctl))
		if runErr == nil {
			if err := tasks.ValidateRenaming(res, n); err != nil {
				return nil, err
			}
			outcome = fmt.Sprintf("names=%v (bound %d) iterations=%v", res.Names, 2*n-1, res.Steps)
		}
		memories = "1 atomic snapshot object (register granularity)"
	case "renaming-emulated":
		var res *tasks.RenamingResult
		res, runErr = tasks.RunRenamingOver(core.NewEmulatedMemory(n), n, nil, nil, sched.Under(ctl))
		if runErr == nil {
			if err := tasks.ValidateRenaming(res, n); err != nil {
				return nil, err
			}
			outcome = fmt.Sprintf("names=%v (bound %d) shots=%v", res.Names, 2*n-1, res.Steps)
		}
		memories = "iterated immediate snapshot memory via the Figure-2 emulation"
	case "approx":
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = float64(i) / float64(n)
		}
		const eps = 0.05
		var res *tasks.ApproxResult
		res, runErr = tasks.RunApproxAgreement(inputs, eps, nil, sched.Under(ctl))
		if runErr == nil {
			if err := tasks.ValidateApprox(inputs, res, eps); err != nil {
				return nil, err
			}
			parts := make([]string, len(res.Outputs))
			for i, x := range res.Outputs {
				if math.IsNaN(x) {
					parts[i] = "crashed"
				} else {
					parts[i] = fmt.Sprintf("%.4f", x)
				}
			}
			outcome = fmt.Sprintf("outputs=[%s] (ε=%g)", strings.Join(parts, " "), eps)
			memories = fmt.Sprintf("%d-round iterated immediate snapshot memory", res.Rounds)
		}
	case "fullinfo":
		const b = 2
		var res *protocol.RunResult
		res, runErr = protocol.RunFullInfo(n, b, nil, sched.Under(ctl))
		if res != nil {
			parts := make([]string, len(res.Keys))
			for i, k := range res.Keys {
				if k == "" {
					k = "crashed"
				}
				parts[i] = k
			}
			outcome = fmt.Sprintf("SDS^%d views: %s", b, strings.Join(parts, ", "))
		}
		memories = fmt.Sprintf("%d-round iterated immediate snapshot memory", b)
	case "bg":
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = 10 * (i + 1)
		}
		f := n - 1 // tolerate any proper subset of simulator crashes
		sim := bg.NewSimulation(n, n+2, &bg.SetConsensusCode{MProc: n + 2, F: f, Inputs: inputs})
		var res *bg.Result
		res, runErr = sim.RunAllScheduled(nil, sched.Under(ctl))
		if res != nil {
			outcome = fmt.Sprintf("adopted=%v simulated=%v", res.Adopted, res.Simulated)
		}
		memories = "1 board snapshot + per-(process,step) safe agreement objects"
	default:
		return nil, fmt.Errorf("%w: unknown algo %q (want one of %v)", ErrInvalid, req.Algo, AdversaryAlgos())
	}

	var be *sched.BudgetError
	if runErr != nil && !errors.As(runErr, &be) {
		return nil, runErr
	}

	resp := &AdversaryResponse{
		Algo:       req.Algo,
		Adversary:  adv.Name(),
		Seed:       req.Seed,
		Procs:      n,
		Crash:      req.Crash,
		TotalSteps: ctl.TotalSteps(),
		StepCounts: ctl.StepCounts(),
		Memories:   memories,
		WaitFree:   be == nil,
		Outcome:    outcome,
	}
	resp.TraceLen = ctl.TotalSteps() // one trace entry per granted step
	resp.TracePrefix = ctl.TracePrefix(tracePrefixLen)
	resp.Statuses = make([]string, n)
	for p := 0; p < n; p++ {
		resp.Statuses[p] = ctl.StatusOf(p).String()
	}
	if be != nil {
		resp.Budget = be.Error()
	}
	return resp, nil
}

func crashCount(crashAt []int) int {
	c := 0
	for _, v := range crashAt {
		if v >= 0 {
			c++
		}
	}
	return c
}

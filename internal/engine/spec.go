package engine

import (
	"fmt"

	"waitfree/internal/tasks"
)

// TaskSpec identifies a task instance by family and parameters. It is the
// serializable (JSON/gob/query-string) face of the tasks package's
// constructors, and the unit the engine hashes for content addressing:
// equal canonical strings build identical tasks.
type TaskSpec struct {
	Family string `json:"family"`
	Procs  int    `json:"procs,omitempty"`
	K      int    `json:"k,omitempty"` // set-consensus: max distinct decisions
	D      int    `json:"d,omitempty"` // approximate agreement: grid density (ε = 1/D)
	M      int    `json:"m,omitempty"` // renaming: namespace size
}

// Families lists the supported task families.
func Families() []string {
	return []string{
		"identity", "consensus", "set-consensus",
		"approx-agreement", "approx-agreement-n", "renaming", "wsb",
	}
}

// Canonical returns the spec's canonical string encoding. Irrelevant
// parameters are normalized away, so two specs that build the same task
// encode (and hash) identically.
func (s TaskSpec) Canonical() string {
	n := s.normalized()
	return fmt.Sprintf("task/%s/procs=%d/k=%d/d=%d/m=%d", n.Family, n.Procs, n.K, n.D, n.M)
}

// Hash returns the spec's content address.
func (s TaskSpec) Hash() string { return hashString(s.Canonical()) }

// normalized zeroes parameters the family ignores and applies defaults.
func (s TaskSpec) normalized() TaskSpec {
	out := TaskSpec{Family: s.Family, Procs: s.Procs}
	switch s.Family {
	case "set-consensus":
		out.K = s.K
	case "approx-agreement":
		out.Procs = 2
		out.D = s.D
	case "approx-agreement-n":
		out.D = s.D
	case "renaming":
		out.M = s.M
	}
	return out
}

// Guards keep the service endpoints inside the tractable envelope; the
// engine refuses specs whose complexes (or searches) would explode. The
// bounds are generous relative to the experiments in EXPERIMENTS.md.
const (
	maxSpecProcs = 4
	maxSpecD     = 32
	maxSpecM     = 8
)

// validate applies Build's parameter checks without constructing anything.
// Every check reads a field normalized keeps (approx-agreement's procs is
// checked raw and then normalized away), so specs with equal normalized
// forms build the same task.
func (s TaskSpec) validate() error {
	if s.Procs < 0 || s.Procs > maxSpecProcs {
		return fmt.Errorf("%w: procs=%d out of range [1,%d]", ErrInvalid, s.Procs, maxSpecProcs)
	}
	switch s.Family {
	case "identity", "consensus", "set-consensus", "approx-agreement-n", "renaming", "wsb":
		if s.Procs < 1 {
			return fmt.Errorf("%w: family %q needs procs ≥ 1", ErrInvalid, s.Family)
		}
	case "approx-agreement":
		if s.Procs != 0 && s.Procs != 2 {
			return fmt.Errorf("%w: approx-agreement is 2-process (procs=%d)", ErrInvalid, s.Procs)
		}
		if s.D < 1 || s.D > maxSpecD {
			return fmt.Errorf("%w: approx-agreement needs 1 ≤ d ≤ %d, got %d", ErrInvalid, maxSpecD, s.D)
		}
	default:
		return fmt.Errorf("%w: unknown task family %q (want one of %v)", ErrInvalid, s.Family, Families())
	}
	switch {
	case s.Family == "set-consensus" && (s.K < 1 || s.K > s.Procs):
		return fmt.Errorf("%w: set-consensus needs 1 ≤ k ≤ procs, got k=%d procs=%d", ErrInvalid, s.K, s.Procs)
	case s.Family == "approx-agreement-n" && (s.D < 1 || s.D > 8):
		return fmt.Errorf("%w: approx-agreement-n needs 1 ≤ d ≤ 8, got %d", ErrInvalid, s.D)
	case s.Family == "renaming" && (s.M < s.Procs || s.M > maxSpecM):
		return fmt.Errorf("%w: renaming needs procs ≤ m ≤ %d, got m=%d procs=%d", ErrInvalid, maxSpecM, s.M, s.Procs)
	}
	return nil
}

// Build constructs the task, validating parameters.
func (s TaskSpec) Build() (*tasks.Task, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	n := s.normalized()
	switch n.Family {
	case "identity":
		return tasks.IdentityTask(n.Procs), nil
	case "consensus":
		return tasks.Consensus(n.Procs), nil
	case "set-consensus":
		return tasks.SetConsensus(n.Procs, n.K), nil
	case "approx-agreement":
		return tasks.ApproxAgreement(n.D), nil
	case "approx-agreement-n":
		return tasks.ApproxAgreementN(n.Procs, n.D), nil
	case "renaming":
		return tasks.Renaming(n.Procs, n.M), nil
	default: // "wsb": validate admits no other family
		return tasks.WeakSymmetryBreaking(n.Procs), nil
	}
}

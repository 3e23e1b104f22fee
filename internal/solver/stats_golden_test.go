package solver_test

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"waitfree/internal/engine"
	"waitfree/internal/model"
	"waitfree/internal/solver"
	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

var updateStats = flag.Bool("update-stats", false, "rewrite testdata/stats_golden.txt from the current solver")

// statsCase is one task under one model, solved at every level 0…maxB.
type statsCase struct {
	name string
	task *tasks.Task
	spec model.Spec
	maxB int
}

// statsCases covers the E6 table, the 14-verdict model matrix and the
// solve classes of the service's cold-solve benchmark (consensus procs=3
// b≤3 wait-free and 1-resilient, consensus procs=4 b≤1, set-consensus
// procs=3 k=2 b≤1, approx-agreement d=32 b≤4, approx-agreement-n procs=3
// d=4 b≤3 and d=2 b≤2).
func statsCases(t *testing.T) []statsCase {
	wf := model.WaitFree()
	cs := []statsCase{
		{"e6/identity-3p", tasks.IdentityTask(3), wf, 0},
		{"e6/set-consensus-3-3", tasks.SetConsensus(3, 3), wf, 0},
		{"e6/renaming-2p-M3", tasks.Renaming(2, 3), wf, 0},
		{"e6/approx-agreement-1/2", tasks.ApproxAgreement(2), wf, 2},
		{"e6/approx-agreement-1/4", tasks.ApproxAgreement(4), wf, 2},
		{"e6/binary-consensus-2p", tasks.Consensus(2), wf, 3},
		{"e6/binary-consensus-3p", tasks.Consensus(3), wf, 1},
		{"e6/set-consensus-3-2", tasks.SetConsensus(3, 2), wf, 1},

		{"matrix/consensus-3p/wait-free", tasks.Consensus(3), wf, 2},
		{"matrix/consensus-3p/1-resilient", tasks.Consensus(3), model.TResilient(1), 2},
		{"matrix/consensus-3p/2-concurrency", tasks.Consensus(3), model.KConcurrency(2), 2},
		{"matrix/set-consensus-3-2/wait-free", tasks.SetConsensus(3, 2), wf, 1},
		{"matrix/set-consensus-3-2/1-resilient", tasks.SetConsensus(3, 2), model.TResilient(1), 2},
		{"matrix/set-consensus-3-2/2-concurrency", tasks.SetConsensus(3, 2), model.KConcurrency(2), 2},
		{"matrix/approx-1/2/wait-free", tasks.ApproxAgreement(2), wf, 2},
		{"matrix/approx-1/2/1-resilient", tasks.ApproxAgreement(2), model.TResilient(1), 2},
		{"matrix/approx-1/2/2-concurrency", tasks.ApproxAgreement(2), model.KConcurrency(2), 2},
		{"matrix/consensus-2p/0-resilient", tasks.Consensus(2), model.TResilient(0), 2},
		{"matrix/consensus-3p/0-resilient", tasks.Consensus(3), model.TResilient(0), 2},
		{"matrix/consensus-2p/1-resilient", tasks.Consensus(2), model.TResilient(1), 2},
		{"matrix/consensus-2p/1-concurrency", tasks.Consensus(2), model.KConcurrency(1), 2},
		{"matrix/consensus-3p/1-set", tasks.Consensus(3), model.KSet(1), 2},
	}
	cold := []struct {
		name  string
		spec  engine.TaskSpec
		model string
		maxB  int
	}{
		{"consensus procs=3", engine.TaskSpec{Family: "consensus", Procs: 3}, "", 3},
		{"consensus procs=3 1-resilient", engine.TaskSpec{Family: "consensus", Procs: 3}, "1-resilient", 3},
		{"consensus procs=4", engine.TaskSpec{Family: "consensus", Procs: 4}, "", 1},
		{"set-consensus procs=3 k=2", engine.TaskSpec{Family: "set-consensus", Procs: 3, K: 2}, "", 1},
		{"approx-agreement d=32", engine.TaskSpec{Family: "approx-agreement", D: 32}, "", 4},
		{"approx-agreement-n procs=3 d=4", engine.TaskSpec{Family: "approx-agreement-n", Procs: 3, D: 4}, "", 3},
		{"approx-agreement-n procs=3 d=2", engine.TaskSpec{Family: "approx-agreement-n", Procs: 3, D: 2}, "", 2},
	}
	for _, c := range cold {
		task, err := c.spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		spec := wf
		if c.model != "" {
			if spec, err = model.Parse(c.model); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		cs = append(cs, statsCase{"cold/" + c.name, task, spec, c.maxB})
	}
	return cs
}

// TestStructuredStatsGolden pins every deterministic figure the structured
// engine reports — verdict, Nodes and each Stats field — per level, against
// testdata/stats_golden.txt. The figures depend only on the subdivision and
// the task, so any change to propagation order, domain construction,
// collapse or decomposition that is meant to be a pure speed-up must leave
// this file byte-identical. Regenerate with -update-stats only for a change
// that is meant to alter the search.
func TestStructuredStatsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every golden level")
	}
	ctx := context.Background()
	var b strings.Builder
	for _, c := range statsCases(t) {
		sub := c.task.Inputs
		opts := solver.Options{}
		if !c.spec.IsWaitFree() {
			opts.Model = c.spec.Canonical()
		}
		for lvl := 0; lvl <= c.maxB; lvl++ {
			if lvl > 0 {
				var err error
				if sub, err = topology.SDSRestricted(sub, c.spec.Filter()); err != nil {
					t.Fatalf("%s b=%d: %v", c.name, lvl, err)
				}
			}
			res, err := solver.SolveAtLevelOn(ctx, c.task, lvl, sub, opts)
			verdict := fmt.Sprint(res.Solvable)
			switch {
			case errors.Is(err, solver.ErrBudget):
				verdict = "budget"
			case err != nil:
				t.Fatalf("%s b=%d: %v", c.name, lvl, err)
			}
			s := res.Stats
			fmt.Fprintf(&b, "%s b=%d solvable=%s nodes=%d pruned=%d collapsed=%d components=%d component_nodes=%v fallback=%v\n",
				c.name, lvl, verdict, res.Nodes, s.PrunedValues, s.CollapsedVertices, s.Components, s.ComponentNodes, s.CollapseFallback)
		}
	}
	path := filepath.Join("testdata", "stats_golden.txt")
	if *updateStats {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-stats to create it)", err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(got), len(wantLines)) {
		g, w := "<missing>", "<missing>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}

package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateAdversary = flag.Bool("update-adversary", false, "rewrite testdata/adversary_golden.txt from the current code")

// adversaryGoldenCases is the replay table pinned in
// testdata/adversary_golden.txt: every algo under every adversary family at
// procs 2–4 and two seeds, crash vectors (all-crash-at-0 included), and
// budget-exhausted runs.
func adversaryGoldenCases() []AdversaryRequest {
	var reqs []AdversaryRequest
	advs := []string{"random", "round-robin", "laggard", "priority-inversion", "solo-1", "block-1"}
	for _, algo := range AdversaryAlgos() {
		for _, adv := range advs {
			for procs := 2; procs <= 4; procs++ {
				for _, seed := range []int64{7, 1 << 40} {
					reqs = append(reqs, AdversaryRequest{Algo: algo, Adversary: adv, Seed: seed, Procs: procs, MaxSteps: 20000})
				}
			}
		}
	}
	crashes := [][]int{{0, -1, -1}, {-1, 3, -1}, {2, -1, 5}, {1, 1, -1}, {0, 0, 0}}
	for _, algo := range AdversaryAlgos() {
		for _, adv := range []string{"random", "round-robin", "laggard"} {
			for _, crash := range crashes {
				reqs = append(reqs, AdversaryRequest{Algo: algo, Adversary: adv, Seed: 3, Procs: 3, Crash: crash, MaxSteps: 20000})
			}
		}
	}
	// The default budget on schedules that finish, and small budgets that
	// trip mid-run.
	for _, algo := range AdversaryAlgos() {
		reqs = append(reqs,
			AdversaryRequest{Algo: algo, Adversary: "round-robin", Seed: 1, Procs: 3},
			AdversaryRequest{Algo: algo, Adversary: "random", Seed: 11, Procs: 4, Crash: []int{-1, 4, -1, -1}},
			AdversaryRequest{Algo: algo, Adversary: "round-robin", Seed: 1, Procs: 3, MaxSteps: 5},
			AdversaryRequest{Algo: algo, Adversary: "laggard", Seed: 1, Procs: 4, MaxSteps: 97},
		)
	}
	return reqs
}

// TestAdversaryGolden pins the EncodeJSON bytes (as SHA-256) of RunAdversary
// over adversaryGoldenCases. The file was written before the scheduler's
// step path changed; a differing line is a changed schedule, step count,
// status or encoding. Regenerate it with -update-adversary only for a
// deliberate change of the replay semantics.
func TestAdversaryGolden(t *testing.T) {
	path := filepath.Join("testdata", "adversary_golden.txt")
	var b strings.Builder
	for _, req := range adversaryGoldenCases() {
		resp, err := RunAdversary(req)
		if err != nil {
			fmt.Fprintf(&b, "%s error=%q\n", req.Key(), err.Error())
			continue
		}
		data, err := EncodeJSON(resp)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		fmt.Fprintf(&b, "%s steps=%d sha256=%s\n", req.Key(), resp.TotalSteps, hex.EncodeToString(sum[:]))
	}
	got := b.String()
	if *updateAdversary {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-adversary to create it)", err)
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%d golden lines, got %d", len(wantLines), len(gotLines))
	}
	for i := range wantLines {
		if wantLines[i] != gotLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

package model

import (
	"errors"
	"testing"

	"waitfree/internal/topology"
)

func TestParseCanonicalRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"", WaitFree()},
		{"wait-free", WaitFree()},
		{"0-resilient", TResilient(0)},
		{"1-resilient", TResilient(1)},
		{"2-concurrency", KConcurrency(2)},
		{"1-concurrency", KConcurrency(1)},
		{"2-set", KSet(2)},
	}
	for _, tc := range cases {
		got, err := Parse(tc.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Errorf("Parse(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		back, err := Parse(got.Canonical())
		if err != nil || back != got {
			t.Errorf("Parse(Canonical(%q)) = %+v, %v; want round-trip", tc.in, back, err)
		}
	}
	if got := WaitFree().Canonical(); got != "wait-free" {
		t.Errorf("wait-free Canonical() = %q", got)
	}
	if got := TResilient(1).Canonical(); got != "1-resilient" {
		t.Errorf("1-resilient Canonical() = %q", got)
	}
}

func TestParseUnknown(t *testing.T) {
	for _, in := range []string{
		"resilient",      // missing parameter
		"x-resilient",    // non-integer parameter
		"1-byzantine",    // unknown family
		"1resilient",     // no dash
		"-1-resilient",   // leading dash parses as empty integer
		"t-resilient",    // symbolic parameter
		"waitfree",       // not the canonical spelling
		"1-concurrency ", // trailing junk
	} {
		if _, err := Parse(in); !errors.Is(err, ErrUnknown) {
			t.Errorf("Parse(%q): want ErrUnknown, got %v", in, err)
		}
	}
}

func TestValidateRanges(t *testing.T) {
	cases := []struct {
		spec  Spec
		procs int
		ok    bool
	}{
		{WaitFree(), 2, true},
		{TResilient(0), 2, true},
		{TResilient(1), 2, true},
		{TResilient(2), 2, false}, // t ≤ procs−1
		{TResilient(-1), 2, false},
		{KConcurrency(1), 3, true},
		{KConcurrency(3), 3, true},
		{KConcurrency(4), 3, false}, // k ≤ procs
		{KConcurrency(0), 3, false},
		{KSet(1), 3, true},
		{KSet(3), 3, true},
		{KSet(0), 3, false},
		{KSet(4), 3, false},
		{Spec{Family: "byzantine", Param: 1}, 3, false},
	}
	for _, tc := range cases {
		err := tc.spec.Validate(tc.procs)
		if (err == nil) != tc.ok {
			t.Errorf("%+v.Validate(%d): err = %v, want ok=%v", tc.spec, tc.procs, err, tc.ok)
		}
	}
}

func TestAllowsPartition(t *testing.T) {
	cases := []struct {
		spec   Spec
		blocks []int
		want   bool
	}{
		// Wait-free admits every schedule.
		{WaitFree(), []int{1, 1, 1}, true},
		{WaitFree(), []int{3}, true},
		// t-resilient: the final block — the correct processes, which read
		// until they saw everyone — holds ≥ m−t processes.
		{TResilient(0), []int{3}, true},
		{TResilient(0), []int{2, 1}, false},
		{TResilient(1), []int{1, 2}, true},
		{TResilient(1), []int{2, 1}, false},
		{TResilient(1), []int{1, 1, 1}, false},
		{TResilient(2), []int{1, 1, 1}, true},
		// k-concurrency: no block larger than k.
		{KConcurrency(1), []int{1, 1, 1}, true},
		{KConcurrency(1), []int{2, 1}, false},
		{KConcurrency(2), []int{2, 1}, true},
		{KConcurrency(2), []int{1, 2}, true},
		{KConcurrency(2), []int{3}, false},
		// k-set: first block ≥ m+1−k.
		{KSet(2), []int{2, 1}, true},
		{KSet(2), []int{1, 2}, false},
		{KSet(3), []int{1, 1, 1}, true},
		{KSet(1), []int{2, 1}, false},
		{KSet(1), []int{3}, true},
	}
	for _, tc := range cases {
		if got := tc.spec.AllowsPartition(tc.blocks); got != tc.want {
			t.Errorf("%s.AllowsPartition(%v) = %v, want %v", tc.spec.Canonical(), tc.blocks, got, tc.want)
		}
	}
}

func TestFilterNilForWaitFree(t *testing.T) {
	if WaitFree().Filter() != nil {
		t.Error("wait-free Filter() must be nil — that is the identity fast path")
	}
	if TResilient(1).Filter() == nil {
		t.Error("1-resilient Filter() must be non-nil")
	}
}

// TestCountAllowedPartitions pins branching factors against hand counts of
// the 13 ordered partitions of a 3-set and the 75 of a 4-set.
func TestCountAllowedPartitions(t *testing.T) {
	cases := []struct {
		spec Spec
		m    int
		want int
	}{
		{WaitFree(), 3, 13}, // Fubini(3)
		{WaitFree(), 4, 75}, // Fubini(4)
		{TResilient(0), 3, 1},
		{TResilient(1), 3, 4},
		{TResilient(2), 3, 13},
		{KConcurrency(1), 3, 6}, // 3! sequential orders
		{KConcurrency(2), 3, 12},
		{KConcurrency(1), 4, 24},
		{KSet(2), 3, 4},
		{KSet(1), 3, 1},
	}
	for _, tc := range cases {
		got, err := tc.spec.CountAllowedPartitions(tc.m)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec.Canonical(), err)
		}
		if got != tc.want {
			t.Errorf("%s.CountAllowedPartitions(%d) = %d, want %d", tc.spec.Canonical(), tc.m, got, tc.want)
		}
	}
	// Every model family admits at least one partition at every size —
	// restriction can never empty a subdivision level.
	for _, spec := range []Spec{TResilient(0), TResilient(1), KConcurrency(1), KSet(1), KSet(2)} {
		for m := 1; m <= 4; m++ {
			if n, _ := spec.CountAllowedPartitions(m); n < 1 {
				t.Errorf("%s admits no partition of an %d-set", spec.Canonical(), m)
			}
		}
	}
}

// TestCountAllowedPartitionsMatchesEnumeration pins the composition count
// equal to enumerating every ordered partition, for every family and
// parameter at every m ≤ 6.
func TestCountAllowedPartitionsMatchesEnumeration(t *testing.T) {
	specs := []Spec{WaitFree()}
	for p := 0; p <= 6; p++ {
		specs = append(specs, TResilient(p), KConcurrency(p), KSet(p))
	}
	for _, spec := range specs {
		for m := 1; m <= 6; m++ {
			want := 0
			topology.ForEachOrderedPartition(m, func(parts [][]int) {
				blocks := make([]int, len(parts))
				for i, b := range parts {
					blocks[i] = len(b)
				}
				if spec.AllowsPartition(blocks) {
					want++
				}
			})
			got, err := spec.CountAllowedPartitions(m)
			if err != nil || got != want {
				t.Errorf("%s.CountAllowedPartitions(%d) = %d, %v; enumeration counts %d", spec.Canonical(), m, got, err, want)
			}
		}
	}
}

// TestCountAllowedPartitionsRejectsHugeM: a size past the Fubini bound is an
// error in every model, returned without enumerating anything.
func TestCountAllowedPartitionsRejectsHugeM(t *testing.T) {
	for _, spec := range []Spec{WaitFree(), TResilient(1), KConcurrency(2), KSet(1)} {
		if _, err := spec.CountAllowedPartitions(2_000_000_000); err == nil {
			t.Errorf("%s.CountAllowedPartitions(2e9): want an error", spec.Canonical())
		}
	}
}

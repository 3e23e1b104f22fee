package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// This file keeps the string-based comparators that defined the canonical
// orders before they moved onto integer ranks, as oracles: Seal's facet
// order (cmpDecimal/cmpFacetOrder), the canonical facet order
// (oracleCmpKeyTuples) and AllSimplices' order (simplexLess). The rank-based
// code must agree with them exactly.

// cmpFacetOrder is the historical Seal facet order: descending size, then
// ascending comma-joined-decimal string order of the sorted vertex lists.
func cmpFacetOrder(a, b []Vertex) int {
	if len(a) != len(b) {
		if len(a) > len(b) {
			return -1
		}
		return 1
	}
	for i := range a {
		if a[i] != b[i] {
			if r := cmpDecimal(a[i], b[i]); r != 0 {
				return r
			}
		}
	}
	return 0
}

func cmpDecimal(x, y Vertex) int {
	var bx, by [24]byte
	sx := strconv.AppendInt(bx[:0], int64(x), 10)
	sy := strconv.AppendInt(by[:0], int64(y), 10)
	return slices.Compare(sx, sy)
}

// oracleCmpKeyTuples compares two key tuples exactly as the strings
// strings.Join(a, "\x1f") and strings.Join(b, "\x1f") compare, byte by
// byte, without building them.
func oracleCmpKeyTuples(a, b []string) int {
	ai, ao, bi, bo := 0, 0, 0, 0
	for {
		ca, aok := oracleTupleByte(a, &ai, &ao)
		cb, bok := oracleTupleByte(b, &bi, &bo)
		switch {
		case !aok && !bok:
			return 0
		case !aok:
			return -1
		case !bok:
			return 1
		}
		if ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
	}
}

func oracleTupleByte(ks []string, i, o *int) (byte, bool) {
	for *i < len(ks) {
		s := ks[*i]
		if *o < len(s) {
			b := s[*o]
			*o++
			return b, true
		}
		*i++
		*o = 0
		if *i < len(ks) {
			return 0x1f, true
		}
	}
	return 0, false
}

// simplexLess is the historical AllSimplices order.
func simplexLess(a, b []Vertex) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// rankVertexCounts straddles every power of ten up to 10⁵, where the
// decimal order of 0…n−1 changes shape.
var rankVertexCounts = []int{0, 1, 2, 9, 10, 11, 99, 100, 101, 1000, 1001, 100001}

func TestDecimalRanksMatchStrconv(t *testing.T) {
	for _, n := range rankVertexCounts {
		rank := decimalRanks(n)
		byString := make([]int, n)
		for i := range byString {
			byString[i] = i
		}
		sort.Slice(byString, func(i, j int) bool {
			return strconv.Itoa(byString[i]) < strconv.Itoa(byString[j])
		})
		for pos, v := range byString {
			if int(rank[v]) != pos {
				t.Fatalf("n=%d: rank[%d] = %d, strconv order puts it at %d", n, v, rank[v], pos)
			}
		}
	}
}

// randomFacets draws facets (duplicates, faces of other facets and mixed
// sizes included) over n vertices.
func randomFacets(rng *rand.Rand, n, count int) [][]Vertex {
	fs := make([][]Vertex, 0, count)
	for len(fs) < count {
		if len(fs) > 0 && rng.Intn(5) == 0 {
			prev := fs[rng.Intn(len(fs))]
			fs = append(fs, slices.Clone(prev[:1+rng.Intn(len(prev))]))
			continue
		}
		size := 1 + rng.Intn(min(n, 5))
		f := make([]Vertex, 0, size)
		for len(f) < size {
			if v := Vertex(rng.Intn(n)); !slices.Contains(f, v) {
				f = append(f, v)
			}
		}
		slices.Sort(f)
		fs = append(fs, f)
	}
	return fs
}

func TestSortFacetsCanonicalMatchesDecimalOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range rankVertexCounts[1:] {
		for trial := 0; trial < 20; trial++ {
			fs := randomFacets(rng, n, 1+rng.Intn(300))
			want := slices.Clone(fs)
			sort.SliceStable(want, func(i, j int) bool { return cmpFacetOrder(want[i], want[j]) < 0 })
			got := slices.Clone(fs)
			sortFacetsCanonical(got, n)
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("n=%d trial %d: position %d is %v, oracle %v", n, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSealMatchesDecimalOracle: Seal keeps exactly the oracle-sorted
// facets that are neither duplicates nor faces of an earlier kept facet.
func TestSealMatchesDecimalOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 9, 11, 101, 1001} {
		for trial := 0; trial < 10; trial++ {
			fs := randomFacets(rng, n, 1+rng.Intn(200))
			c := NewComplex()
			for v := 0; v < n; v++ {
				c.MustAddVertex(fmt.Sprintf("v%d", v), Uncolored)
			}
			for _, f := range fs {
				c.MustAddSimplex(f...)
			}
			c.Seal()
			sort.SliceStable(fs, func(i, j int) bool { return cmpFacetOrder(fs[i], fs[j]) < 0 })
			var want [][]Vertex
			for _, f := range fs {
				if !slices.ContainsFunc(want, func(k []Vertex) bool { return isSubset(f, k) }) {
					want = append(want, f)
				}
			}
			if len(c.Facets()) != len(want) {
				t.Fatalf("n=%d trial %d: %d facets, oracle %d", n, trial, len(c.Facets()), len(want))
			}
			for i, f := range c.Facets() {
				if !slices.Equal(f, want[i]) {
					t.Fatalf("n=%d trial %d: facet %d is %v, oracle %v", n, trial, i, f, want[i])
				}
			}
		}
	}
}

// randomKey draws a key over a short alphabet (so strict prefixes are
// common) with bytes above the 0x1f separator and invalid UTF-8, plus the
// given separator-range bytes.
func randomKey(rng *rand.Rand, low []string) string {
	alphabet := append([]string{"a", "b", " ", "~", "\xc3", "\xff"}, low...)
	var b strings.Builder
	for n := rng.Intn(4); n > 0; n-- {
		b.WriteString(alphabet[rng.Intn(len(alphabet))])
	}
	return b.String()
}

// TestCanonicalFacetOrderRandomKeys pins the canonical facet section of
// explicit complexes with random keys — strict prefixes everywhere, and in
// half the trials bytes ≤ 0x1f (in some of them the separator byte alone),
// which force the byte-walk fallback — against the materialized
// joined-string order.
func TestCanonicalFacetOrderRandomKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lowSets := [][]string{nil, {"\x1f"}, nil, {"\x00", "\x05", "\x1e", "\x1f"}}
	sawLow, sawFallbackDiffer := false, false
	for trial := 0; trial < 400; trial++ {
		low := lowSets[trial%len(lowSets)]
		c := NewComplex()
		for tries := 0; tries < 40; tries++ {
			c.MustAddVertex(randomKey(rng, low), Uncolored) // a repeated key is a no-op
		}
		for _, f := range randomFacets(rng, c.NumVertices(), 1+rng.Intn(30)) {
			c.MustAddSimplex(f...)
		}
		c.Seal()
		want := "facets{" + strings.Join(legacyCanonicalFacetOrder(c), ";") + "}"
		got := c.CanonicalString()
		if idx := strings.LastIndex(got, "facets{"); got[idx:] != want {
			t.Fatalf("trial %d: facet section\n got %q\nwant %q", trial, got[idx:], want)
		}

		order, rank, hasLow := c.keyOrder()
		sawLow = sawLow || hasLow
		keys := make([]string, len(order))
		for r, v := range order {
			keys[r] = c.Key(v)
		}
		tuples, off := c.facetTuples(rank, false, order)
		for i := 0; i+2 < len(off); i++ {
			a, b := tuples[off[i]:off[i+1]], tuples[off[i+1]:off[i+2]]
			ka, kb := make([]string, len(a)), make([]string, len(b))
			for j, r := range a {
				ka[j] = keys[r]
			}
			for j, r := range b {
				kb[j] = keys[r]
			}
			want := oracleCmpKeyTuples(ka, kb)
			if got := cmpKeyTuples(a, b, keys); (got < 0) != (want < 0) || (got > 0) != (want > 0) {
				t.Fatalf("trial %d: cmpKeyTuples(%q, %q) = %d, oracle %d", trial, ka, kb, got, want)
			}
			if want > 0 {
				sawFallbackDiffer = true // rank order and joined order disagree here
			}
		}
	}
	if !sawLow || !sawFallbackDiffer {
		t.Fatalf("generator never exercised the fallback (low bytes %v, differing order %v)", sawLow, sawFallbackDiffer)
	}
}

// TestAllSimplicesAndFVectorMatchOracle: AllSimplices lists each
// dimension in simplexLess order, and FVector counts exactly those lists.
func TestAllSimplicesAndFVectorMatchOracle(t *testing.T) {
	cases := []*Complex{Simplex(0), SDSPow(Simplex(2), 2), Bsd(Simplex(3)), NewComplex().Seal()}
	for seed := int64(0); seed < 10; seed++ {
		cases = append(cases, SDS(RandomChromaticComplex(rand.New(rand.NewSource(seed)))))
	}
	for i, c := range cases {
		all := c.AllSimplices()
		fv := c.FVector()
		if len(fv) != len(all) {
			t.Fatalf("case %d: f-vector %v for %d dimensions", i, fv, len(all))
		}
		for d, ss := range all {
			if fv[d] != len(ss) {
				t.Fatalf("case %d: f[%d] = %d, AllSimplices lists %d", i, d, fv[d], len(ss))
			}
			if !sort.SliceIsSorted(ss, func(a, b int) bool { return simplexLess(ss[a], ss[b]) }) {
				t.Fatalf("case %d: dimension %d not in simplexLess order", i, d)
			}
		}
	}
}

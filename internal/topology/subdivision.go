package topology

import (
	"fmt"
	"sort"
	"strings"
)

// SDS returns the standard chromatic subdivision of the sealed chromatic
// complex c.
//
// Each facet t of c is replaced by the one-shot immediate snapshot complex
// over t (Lemma 3.2): the new vertices are pairs (u, S) with u ∈ S ⊆ t, and
// the facets correspond to the ordered partitions (B1,…,Bm) of t — the facet
// of partition (B1,…,Bm) takes S(u) = B1 ∪ … ∪ Bj for u ∈ Bj. Vertices on a
// shared face of two facets have identical keys, so the per-facet
// subdivisions glue into a subdivision of c.
//
// The result is a subdivision whose Base is c's base (or c itself if c is
// not a subdivision), with carriers composed accordingly, so iterating SDS
// keeps carriers relative to the original complex.
func SDS(c *Complex) *Complex {
	return SDSStructured(c).Complex
}

// SDSLevel is one application of the standard chromatic subdivision with
// its construction structure retained: every new vertex is a pair (u, S)
// where u is a vertex of Prev and S a face of Prev (u ∈ S). The structure
// drives the geometric embedding (Embed) and any other recursion over the
// construction.
type SDSLevel struct {
	Complex *Complex
	Prev    *Complex
	// U[v] and S[v] are the (u, S) pair of new vertex v, as vertices of
	// Prev; S[v] is sorted.
	U []Vertex
	S [][]Vertex
}

// SDSStructured is SDS, additionally returning the construction structure.
//
// The construction runs on the arena representation: each facet's one-shot
// IS subdivision is interned positionally (no string keys, no per-facet
// maps), and the per-facet results are folded into a global integer intern
// table in facet order. Vertex and facet order are identical to the
// historical string-keyed construction; string keys materialize lazily on
// first use (see arena.go).
func SDSStructured(c *Complex) *SDSLevel {
	c.mustBeSealed("SDS")
	m := newSDSMerger(c)
	var w sdsWorkerState
	var r sdsFacetOut
	for _, t := range c.Facets() {
		w.subdivide(c, t, &r)
		m.absorb(&r)
	}
	return m.finish()
}

// SDSPow returns SDS^b(c); SDSPow(c, 0) is c itself.
func SDSPow(c *Complex, b int) *Complex {
	for i := 0; i < b; i++ {
		c = SDS(c)
	}
	return c
}

// sdsVertexKey canonically names the SDS vertex (u, S) using the keys of the
// underlying complex, so that SDS complexes built over equal complexes are
// equal.
func sdsVertexKey(c *Complex, u Vertex, s []Vertex) string {
	keys := make([]string, len(s))
	for i, w := range s {
		keys[i] = c.Key(w)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("S(")
	b.WriteString(c.Key(u))
	b.WriteString("|{")
	b.WriteString(strings.Join(keys, " "))
	b.WriteString("})")
	return b.String()
}

// ForEachOrderedPartition enumerates every ordered partition of {0,…,n−1}
// into non-empty blocks, calling fn with each. The blocks slice and its
// contents are reused between calls; fn must not retain them.
//
// The number of ordered partitions of an n-set is the n-th Fubini number:
// 1, 1, 3, 13, 75, 541, … — the facet counts of SDS(sⁿ⁻¹).
func ForEachOrderedPartition(n int, fn func(blocks [][]int)) {
	if n == 0 {
		return
	}
	full := (1 << n) - 1
	var blocks [][]int
	var rec func(remaining int)
	rec = func(remaining int) {
		if remaining == 0 {
			fn(blocks)
			return
		}
		// Enumerate non-empty subsets of the remaining elements as the next
		// block. Iterating sub = (sub-1)&remaining visits each subset once.
		for sub := remaining; sub > 0; sub = (sub - 1) & remaining {
			block := make([]int, 0, n)
			for i := 0; i < n; i++ {
				if sub&(1<<i) != 0 {
					block = append(block, i)
				}
			}
			blocks = append(blocks, block)
			rec(remaining &^ sub)
			blocks = blocks[:len(blocks)-1]
		}
	}
	rec(full)
}

// CountOrderedPartitions returns the n-th Fubini number, the number of
// ordered partitions of an n-element set. Fubini numbers grow super-
// exponentially (a(19) no longer fits in int64); rather than silently
// wrapping, it panics with a clear message on overflow. Callers that want
// to handle the condition use CountOrderedPartitionsChecked.
func CountOrderedPartitions(n int) int {
	v, err := CountOrderedPartitionsChecked(n)
	if err != nil {
		panic(err)
	}
	return v
}

// MaxFubiniN is the largest n whose Fubini number fits in a 64-bit int:
// a(18) = 3385534663256845323, while a(19) ≈ 9.28e19 does not.
const MaxFubiniN = 18

// CountOrderedPartitionsChecked is CountOrderedPartitions with explicit
// overflow detection: every intermediate product and sum is checked, and the
// first value that does not fit in int is reported as an error instead of a
// silently wrapped number. An n past MaxFubiniN is rejected up front, and
// the table is a fixed-size array, so a hostile n (from a request, a peer's
// key or a disk) sizes no allocation.
func CountOrderedPartitionsChecked(n int) (int, error) {
	if n < 0 || n > MaxFubiniN {
		return 0, fmt.Errorf("topology: CountOrderedPartitions(%d): n must lie in [0,%d], a(n) overflows int past it", n, MaxFubiniN)
	}
	// a(n) = Σ_{k=1..n} C(n,k) a(n−k), a(0)=1.
	var a [MaxFubiniN + 1]int
	a[0] = 1
	for m := 1; m <= n; m++ {
		for k := 1; k <= m; k++ {
			b, err := binomialChecked(m, k)
			if err != nil {
				return 0, fmt.Errorf("topology: CountOrderedPartitions(%d) overflows int at C(%d,%d): %w", n, m, k, err)
			}
			p, ok := mulNonNeg(b, a[m-k])
			if !ok {
				return 0, fmt.Errorf("topology: CountOrderedPartitions(%d) overflows int at C(%d,%d)·a(%d)", n, m, k, m-k)
			}
			s, ok := addNonNeg(a[m], p)
			if !ok {
				return 0, fmt.Errorf("topology: CountOrderedPartitions(%d) overflows int summing a(%d)", n, m)
			}
			a[m] = s
		}
	}
	return a[n], nil
}

func binomial(n, k int) int {
	r, err := binomialChecked(n, k)
	if err != nil {
		panic(err)
	}
	return r
}

// binomialChecked computes C(n,k) with overflow detection on every
// intermediate product (the running product r·(n−i) is always divisible by
// i+1, so checking the multiply suffices). The check is conservative: it
// reports overflow when an intermediate product exceeds int even if the
// final binomial would fit, which errs on the safe side.
func binomialChecked(n, k int) (int, error) {
	if k < 0 || k > n {
		return 0, nil
	}
	if k > n-k {
		k = n - k
	}
	r := 1
	for i := 0; i < k; i++ {
		p, ok := mulNonNeg(r, n-i)
		if !ok {
			return 0, fmt.Errorf("topology: binomial(%d,%d) overflows int", n, k)
		}
		r = p / (i + 1)
	}
	return r, nil
}

// mulNonNeg returns a·b and whether it fits in int, for a, b ≥ 0.
func mulNonNeg(a, b int) (int, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	r := a * b
	if r/a != b || r < 0 {
		return 0, false
	}
	return r, true
}

// addNonNeg returns a+b and whether it fits in int, for a, b ≥ 0.
func addNonNeg(a, b int) (int, bool) {
	r := a + b
	if r < 0 {
		return 0, false
	}
	return r, true
}

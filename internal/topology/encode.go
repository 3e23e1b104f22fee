package topology

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"slices"
	"strconv"
	"strings"
)

// CanonicalString returns a canonical textual encoding of the sealed
// complex: the base's encoding (when the complex is a subdivision), then
// every vertex sorted by key with its color and carrier (carriers rendered
// by base key, so the encoding is independent of internal vertex numbering),
// then every facet as a sorted tuple of vertex keys, facets sorted
// lexicographically. Two sealed complexes with equal canonical strings have
// identical vertex keys, colors, carriers, and facet sets — the property the
// engine's content-addressed cache keys rely on.
func (c *Complex) CanonicalString() string {
	c.mustBeSealed("CanonicalString")
	var b strings.Builder
	c.writeCanonical(&b)
	return b.String()
}

// CanonicalHash returns the hex SHA-256 of CanonicalString without
// materializing the string: the canonical byte stream is fed to the hash
// incrementally, so content-addressing a (3,3)-level subdivision does not
// hold its multi-hundred-megabyte encoding in memory. By construction
// CanonicalHash(c) == hex(sha256(CanonicalString(c))).
func (c *Complex) CanonicalHash() string {
	c.mustBeSealed("CanonicalHash")
	// sha256 has no WriteString; the buffer saves a []byte copy per key.
	h := sha256.New()
	bw := bufio.NewWriterSize(h, 32<<10)
	c.writeCanonical(bw)
	bw.Flush()
	return hex.EncodeToString(h.Sum(nil))
}

// writeCanonical streams the canonical encoding to w. It materializes
// vertex keys (lazily, via ensureKeys) but neither a key → vertex map nor
// the per-facet joined key strings: vertices are sorted by key once, and
// every later order is an order on those key ranks (DESIGN.md §12).
func (c *Complex) writeCanonical(w io.Writer) {
	c.ensureKeys()
	var baseRank []int32
	if c.base != nil {
		ws(w, "base{")
		c.base.writeCanonical(w)
		ws(w, "}\n")
		_, baseRank, _ = c.base.keyOrder()
	}
	order, rank, low := c.keyOrder()
	ws(w, "verts{")
	var num [24]byte
	var carrier []Vertex
	for i, v := range order {
		if i > 0 {
			ws(w, ";")
		}
		ws(w, c.verts[v].key)
		ws(w, "|")
		w.Write(strconv.AppendInt(num[:0], int64(c.verts[v].color), 10))
		if c.base != nil {
			ws(w, "|[")
			carrier = append(carrier[:0], c.verts[v].carrier...)
			slices.SortFunc(carrier, func(a, b Vertex) int { return int(baseRank[a] - baseRank[b]) })
			for j, b := range carrier {
				if j > 0 {
					ws(w, " ")
				}
				ws(w, c.base.verts[b].key)
			}
			ws(w, "]")
		}
	}
	ws(w, "}\nfacets{")
	tuples, off := c.facetTuples(rank, low, order)
	for i := 0; i+1 < len(off); i++ {
		if i > 0 {
			ws(w, ";")
		}
		for j, r := range tuples[off[i]:off[i+1]] {
			if j > 0 {
				ws(w, "\x1f")
			}
			ws(w, c.verts[order[r]].key)
		}
	}
	ws(w, "}")
}

// keyOrder returns the vertices sorted by key, each vertex's rank in that
// order, and whether some key holds a byte ≤ 0x1f (see facetTuples). Keys
// are unique, so the order is total. The caller must have materialized
// keys.
func (c *Complex) keyOrder() (order []Vertex, rank []int32, low bool) {
	order = make([]Vertex, len(c.verts))
	for i := range order {
		order[i] = Vertex(i)
		low = low || strings.ContainsFunc(c.verts[i].key, func(r rune) bool { return r <= 0x1f })
	}
	slices.SortFunc(order, func(a, b Vertex) int { return strings.Compare(c.verts[a].key, c.verts[b].key) })
	rank = make([]int32, len(c.verts))
	for r, v := range order {
		rank[v] = int32(r)
	}
	return order, rank, low
}

// facetTuples returns every facet as its ascending key-rank tuple (its
// sorted key tuple), in one flat buffer — facet i of the result is
// tuples[off[i]:off[i+1]] — with the facets in the byte order of their
// joined "key\x1fkey…" strings. Unless some key holds a byte ≤ 0x1f (low),
// that is the lexicographic order of the rank tuples (DESIGN.md §12 has
// the argument); if one does, cmpKeyTuples walks the joined bytes.
func (c *Complex) facetTuples(rank []int32, low bool, order []Vertex) (tuples, off []int32) {
	flat := make([]int32, 0, len(c.facets)*(c.Dimension()+1))
	start := make([]int32, len(c.facets)+1)
	idx := make([]int32, len(c.facets))
	for i, f := range c.facets {
		for _, v := range f {
			flat = append(flat, rank[v])
		}
		slices.Sort(flat[start[i]:])
		start[i+1] = int32(len(flat))
		idx[i] = int32(i)
	}
	tuple := func(i int32) []int32 { return flat[start[i]:start[i+1]] }
	cmp := func(a, b int32) int { return slices.Compare(tuple(a), tuple(b)) }
	if low {
		keys := make([]string, len(order))
		for r, v := range order {
			keys[r] = c.verts[v].key
		}
		cmp = func(a, b int32) int { return cmpKeyTuples(tuple(a), tuple(b), keys) }
	}
	slices.SortFunc(idx, cmp)
	tuples = make([]int32, 0, len(flat))
	off = make([]int32, 1, len(idx)+1)
	for _, i := range idx {
		tuples = append(tuples, tuple(i)...)
		off = append(off, int32(len(tuples)))
	}
	return tuples, off
}

// ws writes a string, ignoring errors (strings.Builder and hash.Hash never
// fail).
func ws(w io.Writer, s string) { io.WriteString(w, s) }

// cmpKeyTuples compares two facets, given as ascending key-rank tuples,
// exactly as their joined strings keys[a[0]] + "\x1f" + keys[a[1]] + …
// would compare byte by byte, without building them.
func cmpKeyTuples(a, b []int32, keys []string) int {
	ai, ao, bi, bo := 0, 0, 0, 0
	for {
		ca, aok := tupleByte(a, keys, &ai, &ao)
		cb, bok := tupleByte(b, keys, &bi, &bo)
		switch {
		case !aok && !bok:
			return 0
		case !aok:
			return -1
		case !bok:
			return 1
		}
		if ca != cb {
			return int(ca) - int(cb)
		}
	}
}

// tupleByte yields the next byte of the virtual string
// keys[t[0]] + "\x1f" + keys[t[1]] + …, advancing the (token, offset)
// cursor.
func tupleByte(t []int32, keys []string, i, o *int) (byte, bool) {
	for *i < len(t) {
		s := keys[t[*i]]
		if *o < len(s) {
			b := s[*o]
			*o++
			return b, true
		}
		*i++
		*o = 0
		if *i < len(t) {
			return 0x1f, true
		}
	}
	return 0, false
}

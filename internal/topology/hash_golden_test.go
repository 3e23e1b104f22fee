package topology_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"waitfree/internal/model"
	"waitfree/internal/topology"
)

var updateHashes = flag.Bool("update-hashes", false, "rewrite testdata/hash_golden.txt from the current code")

// hashGoldenCase is one complex whose canonical hash and sealed layout are
// pinned in testdata/hash_golden.txt.
type hashGoldenCase struct {
	name  string
	build func(t *testing.T) *topology.Complex
}

func hashGoldenCases() []hashGoldenCase {
	var cs []hashGoldenCase
	for n := 0; n <= 3; n++ {
		for b := 0; b <= 3; b++ {
			if n == 3 && b == 3 {
				continue // 421875 facets: too slow for tier-1
			}
			cs = append(cs, hashGoldenCase{fmt.Sprintf("sds/n=%d/b=%d", n, b), func(*testing.T) *topology.Complex {
				return topology.SDSPow(topology.Simplex(n), b)
			}})
		}
	}
	for n := 0; n <= 3; n++ {
		for b := 0; b <= 2; b++ {
			cs = append(cs, hashGoldenCase{fmt.Sprintf("bsd/n=%d/b=%d", n, b), func(*testing.T) *topology.Complex {
				return topology.BsdPow(topology.Simplex(n), b)
			}})
		}
	}
	restricted := func(n, b int, spec model.Spec) func(*testing.T) *topology.Complex {
		return func(t *testing.T) *topology.Complex {
			c, err := topology.SDSRestrictedPow(topology.Simplex(n), b, spec.Filter())
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
	}
	cs = append(cs,
		hashGoldenCase{"restrict/n=2/b=1/1-resilient", restricted(2, 1, model.TResilient(1))},
		hashGoldenCase{"restrict/n=2/b=2/2-concurrency", restricted(2, 2, model.KConcurrency(2))},
		hashGoldenCase{"restrict/n=3/b=1/2-set", restricted(3, 1, model.KSet(2))},
	)
	for seed := int64(0); seed < 5; seed++ {
		cs = append(cs, hashGoldenCase{fmt.Sprintf("sds-random/seed=%d", seed), func(*testing.T) *topology.Complex {
			return topology.SDS(topology.RandomChromaticComplex(rand.New(rand.NewSource(seed))))
		}})
	}
	// Keys holding bytes at or below the 0x1f tuple separator, strict
	// prefixes of one another: the canonical facet order of this complex
	// is not the order of its key ranks.
	cs = append(cs, hashGoldenCase{"explicit/low-byte-keys", func(*testing.T) *topology.Complex {
		c := topology.NewComplex()
		keys := []string{"a", "a\x01", "a\x1f", "a\x1fb", "b", "", "a\x00"}
		vs := make([]topology.Vertex, len(keys))
		for i, k := range keys {
			vs[i] = c.MustAddVertex(k, topology.Uncolored)
		}
		c.MustAddSimplex(vs[0], vs[4])
		c.MustAddSimplex(vs[1], vs[4])
		c.MustAddSimplex(vs[2], vs[4])
		c.MustAddSimplex(vs[3], vs[0])
		c.MustAddSimplex(vs[5], vs[6], vs[1])
		c.MustAddSimplex(vs[6], vs[2])
		return c.Seal()
	}})
	return cs
}

// layoutDigest hashes what the canonical hash deliberately ignores: the
// vertex numbering (keys in index order) and the sealed facet order (vertex
// index lists in Facets order). Pinning it pins Seal's facet order and the
// builders' vertex order, not just the complex they describe.
func layoutDigest(c *topology.Complex) string {
	h := sha256.New()
	for v := 0; v < c.NumVertices(); v++ {
		fmt.Fprintf(h, "%q|%d;", c.Key(topology.Vertex(v)), c.Color(topology.Vertex(v)))
	}
	var num []byte
	for _, f := range c.Facets() {
		for _, v := range f {
			num = strconv.AppendInt(num[:0], int64(v), 10)
			h.Write(append(num, ','))
		}
		h.Write([]byte{';'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCanonicalHashGolden pins CanonicalHash and the sealed layout of
// SDS^b(sⁿ) (n ≤ 3, b ≤ 3 except (3,3)), Bsd^b(sⁿ) (b ≤ 2), restricted
// levels, SDS of random complexes, and an explicit complex whose keys
// contain separator-range bytes. The file was written before the seal and
// canonical order moved onto integer ranks; regenerate it with
// -update-hashes only for a deliberate change of the canonical encoding.
func TestCanonicalHashGolden(t *testing.T) {
	path := filepath.Join("testdata", "hash_golden.txt")
	var b strings.Builder
	for _, tc := range hashGoldenCases() {
		c := tc.build(t)
		fmt.Fprintf(&b, "%s verts=%d facets=%d hash=%s layout=%s\n",
			tc.name, c.NumVertices(), len(c.Facets()), c.CanonicalHash(), layoutDigest(c))
	}
	got := b.String()
	if *updateHashes {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-hashes to create it)", err)
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

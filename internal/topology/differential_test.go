package topology

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Differential harness for the arena-backed representation: every operation
// runs through both the arena path (SDS, SDSPow, Bsd, SDSToBsd's structural
// branch) and the legacy string-keyed oracle (legacy_oracle_test.go), and
// the outputs must be identical — vertex order, keys, colors, carriers,
// facet order, and (on small instances) the full canonical encoding. The
// (3,3) level runs behind GOLDEN_FULL and compares structure rather than
// the ~850MB canonical string.

// TestDifferentialGoldenSDS pins arena SDSPow against the legacy oracle on
// the whole golden table, cross-checking both against the pinned counts and
// the Lemma 3.3 recurrence.
func TestDifferentialGoldenSDS(t *testing.T) {
	for n := 0; n <= 3; n++ {
		fub := CountOrderedPartitions(n + 1)
		for b := 1; b <= 3; b++ {
			wantV, wantF, ok := goldenFor(n, b)
			if !ok {
				continue
			}
			if n == 3 && b == 3 && !goldenFull() {
				t.Log("skipping (n=3, b=3): set GOLDEN_FULL=1 to include the 421875-facet level")
				continue
			}
			t.Run(fmt.Sprintf("n=%d/b=%d", n, b), func(t *testing.T) {
				arena := SDSPow(Simplex(n), b)
				legacy := legacySDSPow(Simplex(n), b)
				if got := arena.NumVertices(); got != wantV {
					t.Errorf("arena: %d vertices, want %d", got, wantV)
				}
				if got := len(arena.Facets()); got != wantF {
					t.Errorf("arena: %d facets, want %d", got, wantF)
				}
				_, prevF, _ := goldenFor(n, b-1)
				if wantF != fub*prevF {
					t.Errorf("Lemma 3.3 recurrence: %d ≠ %d·%d", wantF, fub, prevF)
				}
				complexesIdentical(t, legacy, arena)
				// The full canonical string of SDS³(s³) is hundreds of MB;
				// there complexesIdentical (keys, colors, carriers, facet
				// lists — which determine the encoding) is the comparison.
				if n < 3 || b < 3 {
					if arena.CanonicalString() != legacy.CanonicalString() {
						t.Error("canonical encodings differ")
					}
				}
			})
		}
	}
}

// TestDifferentialGoldenBsd pins arena Bsd (and one iterated level) against
// the legacy oracle on standard simplices.
func TestDifferentialGoldenBsd(t *testing.T) {
	for n := 0; n <= 3; n++ {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			c := Simplex(n)
			arena, legacy := Bsd(c), legacyBsd(c)
			complexesIdentical(t, legacy, arena)
			if arena.CanonicalString() != legacy.CanonicalString() {
				t.Error("Bsd canonical encodings differ")
			}
			if n <= 2 {
				a2, l2 := Bsd(arena), legacyBsd(legacy)
				complexesIdentical(t, l2, a2)
				if a2.CanonicalString() != l2.CanonicalString() {
					t.Error("Bsd² canonical encodings differ")
				}
			}
		})
	}
}

// TestDifferentialRandom drives both paths over seeded random chromatic
// complexes: SDS, SDS², Bsd, and Join with a disjoint point set.
func TestDifferentialRandom(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := RandomChromaticComplex(rand.New(rand.NewSource(seed)))

			as, ls := SDS(c), legacySDS(c)
			complexesIdentical(t, ls, as)
			if as.CanonicalString() != ls.CanonicalString() {
				t.Fatal("SDS canonical encodings differ")
			}

			a2, l2 := SDS(as), legacySDS(ls)
			complexesIdentical(t, l2, a2)
			if a2.CanonicalString() != l2.CanonicalString() {
				t.Fatal("SDS² canonical encodings differ")
			}

			ab, lb := Bsd(c), legacyBsd(c)
			complexesIdentical(t, lb, ab)
			if ab.CanonicalString() != lb.CanonicalString() {
				t.Fatal("Bsd canonical encodings differ")
			}

			// Join consumes vertex keys, so arena-built inputs exercise the
			// lazy-key materialization; the legacy-built input is the oracle.
			pts := Points(2, 9, "q")
			aj, err := Join(as, pts)
			if err != nil {
				t.Fatalf("Join(arena): %v", err)
			}
			lj, err := Join(ls, pts)
			if err != nil {
				t.Fatalf("Join(legacy): %v", err)
			}
			complexesIdentical(t, lj, aj)
			if aj.CanonicalString() != lj.CanonicalString() {
				t.Fatal("Join canonical encodings differ")
			}
		})
	}
}

// TestDifferentialSDSToBsd checks the structural (provenance-based) fast
// path of SDSToBsd against both the legacy oracle map and the key-based
// fallback path on legacy-built complexes.
func TestDifferentialSDSToBsd(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := RandomChromaticComplex(rand.New(rand.NewSource(seed)))
			as, ab := SDS(c), Bsd(c)
			ls, lb := legacySDS(c), legacyBsd(c)

			structural, err := SDSToBsd(c, as, ab)
			if err != nil {
				t.Fatalf("SDSToBsd structural: %v", err)
			}
			if as.prov == nil || ab.prov == nil {
				t.Fatal("arena complexes lost provenance; structural path not exercised")
			}
			oracle, err := legacySDSToBsd(c, ls, lb)
			if err != nil {
				t.Fatalf("legacySDSToBsd: %v", err)
			}
			fallback, err := SDSToBsd(c, ls, lb)
			if err != nil {
				t.Fatalf("SDSToBsd fallback: %v", err)
			}
			// complexesIdentical above (other tests) proves vertex numbering
			// agrees across paths, so the image slices must match entrywise.
			for v := range oracle.Image {
				if structural.Image[v] != oracle.Image[v] {
					t.Fatalf("vertex %d: structural image %d, oracle %d", v, structural.Image[v], oracle.Image[v])
				}
				if fallback.Image[v] != oracle.Image[v] {
					t.Fatalf("vertex %d: fallback image %d, oracle %d", v, fallback.Image[v], oracle.Image[v])
				}
			}
			if err := structural.Validate(); err != nil {
				t.Fatalf("structural map not simplicial: %v", err)
			}
			if !structural.CarrierRespecting() {
				t.Fatal("structural map not carrier-respecting")
			}
		})
	}
}

// TestCanonicalHashMatchesString pins CanonicalHash to its definition: the
// hex SHA-256 of CanonicalString, for base complexes and subdivisions on
// both construction paths.
func TestCanonicalHashMatchesString(t *testing.T) {
	cases := []*Complex{
		Simplex(2),
		SDS(Simplex(2)),
		legacySDS(Simplex(2)),
		Bsd(Simplex(2)),
		SDSPow(Simplex(1), 2),
	}
	for seed := int64(0); seed < 5; seed++ {
		c := RandomChromaticComplex(rand.New(rand.NewSource(seed)))
		cases = append(cases, c, SDS(c))
	}
	for i, c := range cases {
		sum := sha256.Sum256([]byte(c.CanonicalString()))
		if got, want := c.CanonicalHash(), hex.EncodeToString(sum[:]); got != want {
			t.Errorf("case %d: CanonicalHash %s, want sha256(CanonicalString) %s", i, got, want)
		}
	}
}

// TestCanonicalFacetOrderMatchesLegacy pins the key-rank facet order of the
// canonical encoding against the legacy materialize-and-sort order.
func TestCanonicalFacetOrderMatchesLegacy(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		c := SDS(RandomChromaticComplex(rand.New(rand.NewSource(seed))))
		want := "facets{" + strings.Join(legacyCanonicalFacetOrder(c), ";") + "}"
		got := c.CanonicalString()
		idx := strings.LastIndex(got, "facets{")
		if idx < 0 || got[idx:] != want {
			t.Fatalf("seed %d: facet section mismatch\n got %q\nwant %q", seed, got[idx:], want)
		}
	}
}

package engine

import (
	"runtime"
	"testing"
)

// FuzzFetchByteLimit prices arbitrary cache keys of the three kinds a peer
// inventory can name with parameters — cx:, conv: and solve: — and asserts
// the trust-boundary contract: the bound stays within [floor, ceiling] and
// pricing one key allocates less than 1 MiB, whatever its parameters claim.
func FuzzFetchByteLimit(f *testing.F) {
	for _, seed := range []struct {
		kind byte
		rest string
	}{
		{0, "n=2:b=3"},
		{0, "n=2000000000:b=2000000000"},
		{0, "n=1:b=2000000000"},
		{0, "n=-1:b=-7"},
		{1, "n=2:target=2:maxk=4"},
		{1, "n=2000000000:target=2000000000:maxk=2000000000"},
		{2, "b9c8ea4f73f3fffde544155d458ef08c5e9a1c47cf9702a200a546cd55effe92:maxb=3:maxnodes=0"},
		{2, "x:maxb=99999999999999999999:maxnodes=-1:model=3-resilient"},
	} {
		f.Add(seed.kind, seed.rest)
	}
	e := New(Options{})
	prefixes := []string{"cx:", "conv:", "solve:"}
	f.Fuzz(func(t *testing.T, kind byte, rest string) {
		key := prefixes[int(kind)%len(prefixes)] + rest
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		limit := e.FetchByteLimit(key)
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Fatalf("FetchByteLimit(%q) allocated %d bytes, want < 1 MiB", key, d)
		}
		if limit < fetchLimitBase || limit > fetchLimitMax {
			t.Fatalf("FetchByteLimit(%q) = %d, outside [%d, %d]", key, limit, fetchLimitBase, fetchLimitMax)
		}
	})
}

package cluster

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// FuzzDecodeInventory feeds arbitrary bodies to the /v1/peer/keys decoder,
// which anti-entropy runs on whatever a peer answers. The decoder must
// never keep more than MaxInventoryKeys keys, and decoding must allocate
// less than 1 MiB: bodies are capped at 32 KiB here so that the bound
// measures amplification (what the content makes the decoder allocate),
// not the body size, which the decoder's own 1 MiB read limit covers.
func FuzzDecodeInventory(f *testing.F) {
	for _, seed := range []string{
		`{"keys":[]}`,
		`{"keys":["solve:ab:maxb=1:maxnodes=0","cx:n=2:b=3"]}`,
		`{"keys":["cx:n=2000000000:b=2000000000"]}`,
		`{"keys":[` + strings.Repeat(`"",`, MaxInventoryKeys) + `""]}`,
		`{"keys":null,"extra":{"nested":[1,2,3]}}`,
		`[1,2,3]`,
		`{"keys":["unterminated`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 32<<10 {
			t.Skip("body past the amplification bound's scope")
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		keys, _ := decodeInventory(bytes.NewReader(body))
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Fatalf("decoding a %d-byte inventory allocated %d bytes, want < 1 MiB", len(body), d)
		}
		if len(keys) > MaxInventoryKeys {
			t.Fatalf("decoded %d keys, cap %d", len(keys), MaxInventoryKeys)
		}
	})
}

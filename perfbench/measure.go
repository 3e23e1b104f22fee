package main

import (
	"bytes"
	"io"
	"net/http"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"waitfree/internal/serve"
)

// client is one closed-loop caller: a private keep-alive connection per
// node, so the workload never holds more connections than it has clients
// in flight.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one response, timed from send to the last body byte.
type reply struct {
	status  int
	body    []byte
	traceID string
	lat     time.Duration
	err     error
}

func (c *client) get(url string) reply {
	t0 := time.Now()
	resp, err := c.hc.Get(url)
	if err != nil {
		return reply{lat: time.Since(t0), err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{
		status:  resp.StatusCode,
		body:    body,
		traceID: resp.Header.Get("X-Trace-Id"),
		lat:     time.Since(t0),
		err:     err,
	}
}

// accept records rp into r: a transport error or non-200 fails it, and a
// non-nil want must equal the body byte for byte.
func (r *rec) accept(rp reply, want []byte) {
	r.lat = int64(rp.lat)
	r.bodyLen = uint32(len(rp.body))
	r.ok = rp.err == nil && rp.status == http.StatusOK && (want == nil || bytes.Equal(rp.body, want))
}

// cpuTime is the process's user+sys time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSnap is the slice of runtime/metrics the runtime layer reports.
type rtSnap struct{ allocObjects, allocBytes, gcCycles uint64 }

var rtNames = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSnap{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

func (a rtSnap) sub(b rtSnap) rtSnap {
	return rtSnap{a.allocObjects - b.allocObjects, a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles}
}

func (a rtSnap) add(b rtSnap) rtSnap {
	return rtSnap{a.allocObjects + b.allocObjects, a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles}
}

// heapMonitor samples the heap bytes held by objects (live plus not yet
// swept) every millisecond and keeps the peak since the last take.
type heapMonitor struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func heapInUse() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapMonitor() *heapMonitor {
	m := &heapMonitor{stop: make(chan struct{})}
	m.peak.Store(heapInUse())
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.observe()
			}
		}
	}()
	return m
}

func (m *heapMonitor) observe() {
	cur := heapInUse()
	for {
		p := m.peak.Load()
		if cur <= p || m.peak.CompareAndSwap(p, cur) {
			return
		}
	}
}

// take returns the peak since the previous take and restarts the watch.
func (m *heapMonitor) take() uint64 {
	m.observe()
	return m.peak.Swap(heapInUse())
}

func (m *heapMonitor) close() {
	close(m.stop)
	m.wg.Wait()
}

// counters are the engine-layer counters the per-layer metrics divide,
// read through the same Snapshot that /metrics serves.
type counters struct {
	hits, misses, evictions, deduped, rejected int64
	sdsHit, sdsMiss                            int64
	fillHit, fillMiss, forwarded, forwardErrs  int64
}

func readCounters(srvs ...*serve.Server) counters {
	var c counters
	for _, s := range srvs {
		m := s.Engine().Metrics().Snapshot()
		get := func(k string) int64 { v, _ := m[k].(int64); return v }
		c.hits += get("cache_hits")
		c.misses += get("cache_misses")
		c.evictions += get("cache_evictions")
		c.deduped += get("deduped")
		c.rejected += get("rejected")
		c.sdsHit += get("counter_sds_hit")
		c.sdsMiss += get("counter_sds_miss")
		c.fillHit += get("counter_cluster_peer_fill_hit")
		c.fillMiss += get("counter_cluster_peer_fill_miss")
		c.forwarded += get("counter_cluster_forwarded_total")
		c.forwardErrs += get("counter_cluster_forward_errors")
	}
	return c
}

func (a counters) sub(b counters) counters {
	return counters{
		a.hits - b.hits, a.misses - b.misses, a.evictions - b.evictions, a.deduped - b.deduped, a.rejected - b.rejected,
		a.sdsHit - b.sdsHit, a.sdsMiss - b.sdsMiss,
		a.fillHit - b.fillHit, a.fillMiss - b.fillMiss, a.forwarded - b.forwarded, a.forwardErrs - b.forwardErrs,
	}
}

func (a counters) add(b counters) counters {
	return a.sub(counters{}.sub(b))
}

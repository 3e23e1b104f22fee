package main

import (
	"fmt"
	"sync"
	"time"
)

// A windowed phase is cut into equal windows of about this length;
// end-to-end figures are the median over windows, so a noisy stretch
// shorter than half the phase cannot move them.
const windowLen = 2 * time.Second

type window struct {
	cpu  time.Duration
	heap uint64
}

// phase is one timed closed-loop stretch: one tape per client.
type phase struct {
	tapes   []*tape
	dur     time.Duration
	winLen  time.Duration
	windows []window
	rt      rtSnap
}

// each visits every record of the phase.
func (p *phase) each(f func(t *tape, r *rec)) {
	for _, t := range p.tapes {
		for i := range t.recs {
			f(t, &t.recs[i])
		}
	}
}

func (p *phase) free() {
	for _, t := range p.tapes {
		t.free()
	}
}

// closedLoop runs nClients callers back to back for dur: each call of
// step sends one request, waits for the whole reply and fills its record.
// With alternate set, requests sent in odd windows are traced, so traced
// and untraced stretches interleave and share the run's drift.
func closedLoop(dur time.Duration, nClients int, keepBodies, alternate bool, step func(client int, t *tape, r *rec, traced bool) error) (*phase, error) {
	n := max(1, int(dur/windowLen))
	if alternate {
		n = max(2, n)
	}
	p := &phase{dur: dur, winLen: dur / time.Duration(n)}
	for i := 0; i < nClients; i++ {
		t, err := newTape(keepBodies)
		if err != nil {
			p.free()
			return nil, err
		}
		p.tapes = append(p.tapes, t)
	}
	mon := startHeapMonitor()
	defer mon.close()
	errs := make([]error, nClients)
	rt0, cpu0 := readRuntime(), cpuTime()
	mon.take()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i, t := range p.tapes {
		wg.Add(1)
		go func(i int, t *tape) {
			defer wg.Done()
			for now := time.Now(); now.Before(deadline); now = time.Now() {
				r, err := t.next()
				if err == nil {
					err = step(i, t, r, alternate && int(now.Sub(start)/p.winLen)%2 == 1)
				}
				if err != nil {
					errs[i] = err
					return
				}
				r.doneAt = int64(time.Since(start))
			}
		}(i, t)
	}
	last := cpu0
	for k := 1; k <= n; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * p.winLen)))
		c := cpuTime()
		p.windows = append(p.windows, window{cpu: c - last, heap: mon.take()})
		last = c
	}
	wg.Wait()
	p.rt = readRuntime().sub(rt0)
	for _, err := range errs {
		if err != nil {
			p.free()
			return nil, err
		}
	}
	return p, nil
}

// okQPS is the successful responses per second completed in the windows
// of one parity: 0 for the even (untraced) windows, 1 for the odd ones.
func (p *phase) okQPS(parity int) float64 {
	ok, wins := 0, 0
	for k := range p.windows {
		if k%2 == parity {
			wins++
		}
	}
	p.each(func(_ *tape, r *rec) {
		k := int(time.Duration(r.doneAt) / p.winLen)
		if r.ok && k < len(p.windows) && k%2 == parity {
			ok++
		}
	})
	return ratio(float64(ok), float64(wins)*p.winLen.Seconds())
}

// e2e is one workload's end-to-end figures.
type e2e struct {
	qps, p50, p99, cpuPerReq, heapMB float64
	samples                          int
	detail                           string // the window figures behind the medians
}

// reduceWindows computes the end-to-end figures of each window and takes
// their medians. A request belongs to the window in which it completed;
// requests completing after the phase's end count as attempts only.
func reduceWindows(p *phase) e2e {
	lats := make([][]float64, len(p.windows))
	done := make([]int, len(p.windows))
	var out e2e
	p.each(func(_ *tape, r *rec) {
		k := int(time.Duration(r.doneAt) / p.winLen)
		if k >= len(p.windows) {
			return
		}
		done[k]++
		if r.ok {
			lats[k] = append(lats[k], ms(time.Duration(r.lat)))
			out.samples++
		}
	})
	var qps, p50, p99, cpu, heap []float64
	for k, w := range p.windows {
		l := sortedCopy(lats[k])
		qps = append(qps, float64(len(l))/p.winLen.Seconds())
		p50 = append(p50, percentile(l, 0.50))
		p99 = append(p99, percentile(l, 0.99))
		cpu = append(cpu, ratio(ms(w.cpu), float64(done[k])))
		heap = append(heap, float64(w.heap)/1e6)
	}
	out.qps, out.p50, out.p99, out.cpuPerReq, out.heapMB = median(qps), median(p50), median(p99), median(cpu), median(heap)
	out.detail = fmt.Sprintf("per window: qps %.0f, p50 %.3g, p99 %.3g, cpu %.3g, heap %.3g", qps, p50, p99, cpu, heap)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

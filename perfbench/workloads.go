package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"waitfree/internal/engine"
	"waitfree/internal/serve"
)

// setupReps is how many times a steady-state workload brings its nodes up
// from nothing; setup_s is the median.
const setupReps = 3

// outcome is one run's verdict and figures.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	samples           int
	notes             []string
}

type workload struct {
	name, shape string
	run         func(cfg config) (*outcome, error)
}

var workloads = []workload{
	{"warm-hit", "closed loop, 2 clients, 1 node; uniform draws from 16 warmed queries over all four endpoints", runWarmHit},
	{"cold-solve", "closed loop, 1 client, 1 node restarted per round; one seeded shuffle of 9 cold classes per round", runColdSolve},
	{"cluster-fresh", "closed loop, 2 clients, 3 gossiping nodes; never-seen adversary replays sent to seeded random nodes", runClusterFresh},
}

// tally counts attempts and failures.
func (o *outcome) tally(p *phase) {
	p.each(func(_ *tape, r *rec) {
		o.attempted++
		if !r.ok {
			o.failed++
		}
	})
}

func (o *outcome) setE2E(setup []float64, e e2e) {
	o.metrics = map[string]float64{
		"setup_s":        median(setup),
		"throughput_qps": e.qps,
		"latency_p50_ms": e.p50,
		"latency_p99_ms": e.p99,
		"cpu_ms_per_req": e.cpuPerReq,
		"heap_peak_mb":   e.heapMB,
	}
	o.samples = e.samples
	if e.detail != "" {
		o.notes = append(o.notes, e.detail)
	}
}

// steady describes a steady-state workload to windowed.
type steady struct {
	srvs    []*serve.Server
	clients int
	classes []class // fixed query classes, for the per-class note
	keep    bool    // keep bodies for check
	step    func(client int, t *tape, r *rec, attr *attributor) error
	check   func(p *phase) // verifies kept bodies after the phase
	own     func(r *rec) unspanned
	setup   []float64
}

// windowed runs the timed part of a steady-state workload: one phase of
// cfg.seconds. Traced, its odd windows attribute every response's span
// tree (step gets a nil attributor elsewhere); the even windows are the
// untraced baseline for trace_overhead_frac. Counter and runtime ratios
// span the whole phase, since tracing does not change what the program
// counts.
func windowed(cfg config, w steady) (*outcome, error) {
	attrs := make([]*attributor, w.clients)
	for i := range attrs {
		attrs[i] = newAttributor()
	}
	runtime.GC()
	c0 := readCounters(w.srvs...)
	p, err := closedLoop(time.Duration(cfg.seconds*float64(time.Second)), w.clients, w.keep, cfg.trace,
		func(i int, t *tape, r *rec, traced bool) error {
			var a *attributor
			if traced {
				a = attrs[i]
			}
			return w.step(i, t, r, a)
		})
	if err != nil {
		return nil, err
	}
	defer p.free()
	cnt := readCounters(w.srvs...).sub(c0)
	if w.check != nil {
		w.check(p)
	}
	o := &outcome{}
	o.tally(p)
	if !cfg.trace {
		o.setE2E(w.setup, reduceWindows(p))
		if w.classes != nil {
			o.notes = append(o.notes, classMedians(p, w.classes))
		}
		return o, nil
	}
	for _, a := range attrs[1:] {
		attrs[0].merge(a)
	}
	o.metrics, o.notes, o.samples = layers(traced{
		p: p, attr: attrs[0], own: w.own, cnt: cnt,
		qpsPlain: p.okQPS(0), qpsTraced: p.okQPS(1),
	})
	return o, nil
}

// attributeReply looks up r's span tree on srv and adds it to a.
func attributeReply(a *attributor, srv *serve.Server, rp reply, r *rec) {
	if a == nil || !r.ok {
		return
	}
	if ts, ok := srv.Traces().Get(rp.traceID); ok {
		root, fwd := a.add(ts)
		r.rootMs, r.fwd, r.traced = float32(root), fwd, true
	}
}

func runWarmHit(cfg config) (*outcome, error) {
	classes := warmCatalogue()
	want, vals, err := references(classes)
	if err != nil {
		return nil, err
	}
	var costs []classCost
	if cfg.trace {
		costs = timeClasses(classes, vals)
	}
	vals = nil
	var n *node
	var setup []float64
	for r := 0; r < setupReps; r++ {
		if n != nil {
			n.stop()
		}
		t0 := time.Now()
		if n, err = startNode("127.0.0.1:0", nil); err != nil {
			return nil, err
		}
		if err := warm(n, classes, want); err != nil {
			n.stop()
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer n.stop()
	clients := []*client{newClient(), newClient()}
	defer clients[0].close()
	defer clients[1].close()
	streams := []*stream{newStream(cfg.seed, 0), newStream(cfg.seed, 1)}
	return windowed(cfg, steady{
		srvs: []*serve.Server{n.srv}, clients: 2, classes: classes, setup: setup,
		step: func(i int, _ *tape, r *rec, a *attributor) error {
			ci := streams[i].pick(len(classes))
			rp := clients[i].get(n.base + classes[ci].path)
			r.cls = int16(ci)
			r.accept(rp, want[ci])
			attributeReply(a, n.srv, rp, r)
			return nil
		},
		// Every timed request is a memory-tier hit: a solve hit builds its
		// TaskSpec twice (admission's estimate and the engine's validation).
		own: func(r *rec) unspanned {
			c := costs[r.cls]
			return unspanned{encodeMs: c.encodeMs, buildMs: 2 * c.buildMs}
		},
	})
}

func runClusterFresh(cfg config) (*outcome, error) {
	const size = 3
	var nodes []*node
	var setup []float64
	for r := 0; r < setupReps; r++ {
		if nodes != nil {
			stopAll(nodes)
		}
		t0 := time.Now()
		var err error
		if nodes, err = startCluster(size); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer stopAll(nodes)
	srvs := make([]*serve.Server, size)
	for i, n := range nodes {
		srvs[i] = n.srv
	}
	clients := []*client{newClient(), newClient()}
	defer clients[0].close()
	defer clients[1].close()
	streams := []*stream{newStream(cfg.seed, 0), newStream(cfg.seed, 1)}
	return windowed(cfg, steady{
		srvs: srvs, clients: 2, keep: true, setup: setup,
		step: func(i int, t *tape, r *rec, a *attributor) error {
			at, d := streams[i].freshAt(size)
			rp := clients[i].get(nodes[at].base + adversaryPath(d.request()))
			r.algo, r.adv, r.procs, r.seed = d.algo, d.adv, d.procs, d.seed
			r.accept(rp, nil)
			attributeReply(a, srvs[at], rp, r)
			return t.keep(r, rp.body)
		},
		check: checkFresh,
		own:   func(r *rec) unspanned { return unspanned{encodeMs: float64(r.encodeMs), replayMs: float64(r.replayMs)} },
	})
}

// checkFresh verifies cluster-fresh bodies after the timed phase, so the
// check's own replays do not load the measured run. Each reference is the
// never-seen replay answered by a non-serving engine; its replay and
// encode times are the sched and encode layer figures.
func checkFresh(p *phase) {
	eng := engine.New(engine.Options{})
	type job struct {
		t *tape
		r *rec
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				t0 := time.Now()
				v, err := eng.Adversary(context.Background(), draw{j.r.algo, j.r.adv, j.r.procs, j.r.seed}.request())
				t1 := time.Now()
				var b []byte
				if err == nil {
					b, err = engine.EncodeJSON(v)
				}
				j.r.replayMs, j.r.encodeMs = float32(ms(t1.Sub(t0))), float32(ms(time.Since(t1)))
				j.r.ok = j.r.ok && err == nil && bytes.Equal(b, j.t.body(j.r))
			}
		}()
	}
	p.each(func(t *tape, r *rec) { jobs <- job{t, r} })
	close(jobs)
	wg.Wait()
}

// round is one cold-solve round: a fresh node answering one shuffle with
// the next n records of the tape.
type round struct {
	n, ok int
	dur   time.Duration
	cpu   time.Duration
	heap  uint64
}

func (rd round) qps() float64 { return float64(rd.ok) / rd.dur.Seconds() }

func runColdSolve(cfg config) (*outcome, error) {
	classes := coldClasses()
	want, vals, err := references(classes)
	if err != nil {
		return nil, err
	}
	var costs []classCost
	if cfg.trace {
		costs = timeClasses(classes, vals)
	}
	vals = nil
	t, err := newTape(false)
	if err != nil {
		return nil, err
	}
	p := &phase{tapes: []*tape{t}}
	defer p.free()
	st := newStream(cfg.seed, 0)
	mon := startHeapMonitor()
	defer mon.close()
	attr := newAttributor()
	var rs []round
	var setup []float64
	var cnt counters
	// Whole rounds run until their summed time reaches the budget; the
	// restart before each round is set-up, outside the timed clock.
	// Traced, odd rounds attribute span trees and even rounds are the
	// untraced baseline.
	for budget := time.Duration(cfg.seconds * float64(time.Second)); p.dur < budget; {
		var a *attributor
		if cfg.trace && len(rs)%2 == 1 {
			a = attr
		}
		runtime.GC()
		t0 := time.Now()
		n, err := startNode("127.0.0.1:0", nil)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		c := newClient()
		rd := round{n: len(classes)}
		mon.take()
		cpu0, rt0, r0 := cpuTime(), readRuntime(), time.Now()
		for _, ci := range st.shuffle(len(classes)) {
			rp := c.get(n.base + classes[ci].path)
			r, err := t.next()
			if err != nil {
				n.stop()
				return nil, err
			}
			r.cls, r.doneAt = int16(ci), int64(time.Since(r0))
			r.accept(rp, want[ci])
			attributeReply(a, n.srv, rp, r)
			if r.ok {
				rd.ok++
			}
		}
		rd.dur, rd.cpu, rd.heap = time.Since(r0), cpuTime()-cpu0, mon.take()
		p.rt = p.rt.add(readRuntime().sub(rt0))
		cnt = cnt.add(readCounters(n.srv))
		c.close()
		if err := n.stop(); err != nil {
			return nil, err
		}
		p.dur += rd.dur
		rs = append(rs, rd)
	}
	o := &outcome{}
	o.tally(p)
	if !cfg.trace {
		o.setE2E(setup, reduceRounds(p, rs))
		o.notes = append(o.notes, classMedians(p, classes))
		return o, nil
	}
	var qps [2][]float64
	for i, rd := range rs {
		qps[i%2] = append(qps[i%2], rd.qps())
	}
	o.metrics, o.notes, o.samples = layers(traced{
		p: p, attr: attr, cnt: cnt, rounds: len(qps[1]),
		qpsPlain: median(qps[0]), qpsTraced: median(qps[1]),
		// Every request is a miss on a fresh node: a solve miss builds its
		// TaskSpec three times (admission, validation, compute), and a
		// complex answer computes its invariants.
		own: func(r *rec) unspanned {
			c := costs[r.cls]
			return unspanned{encodeMs: c.encodeMs, buildMs: 3 * c.buildMs, invariantsMs: c.invariantsMs}
		},
	})
	return o, nil
}

// reduceRounds computes cold-solve's end-to-end figures. Throughput, CPU
// per request and heap peak are medians over rounds, so a slow stretch
// shorter than half the run cannot move them; the percentiles are taken
// over every request of the run, since one round holds one sample of each
// class.
func reduceRounds(p *phase, rs []round) e2e {
	var qps, cpu, heap, lats []float64
	for _, rd := range rs {
		qps = append(qps, rd.qps())
		cpu = append(cpu, ratio(ms(rd.cpu), float64(rd.n)))
		heap = append(heap, float64(rd.heap)/1e6)
	}
	p.each(func(_ *tape, r *rec) {
		if r.ok {
			lats = append(lats, ms(time.Duration(r.lat)))
		}
	})
	l := sortedCopy(lats)
	return e2e{
		qps:       median(qps),
		p50:       percentile(l, 0.50),
		p99:       percentile(l, 0.99),
		cpuPerReq: median(cpu),
		heapMB:    median(heap),
		samples:   len(l),
		detail:    fmt.Sprintf("%d rounds; per round: qps %.3g", len(rs), qps),
	}
}

// classMedians lists each class's median latency: the per-class view
// behind a fixed catalogue's percentiles.
func classMedians(p *phase, classes []class) string {
	lats := make([][]float64, len(classes))
	p.each(func(_ *tape, r *rec) {
		if r.ok {
			lats[r.cls] = append(lats[r.cls], ms(time.Duration(r.lat)))
		}
	})
	var b strings.Builder
	b.WriteString("per class p50 ms:")
	for i, c := range classes {
		fmt.Fprintf(&b, " [%s] %.3g", c.name, median(lats[i]))
	}
	return b.String()
}

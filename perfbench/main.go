// Command perfbench is the service benchmark: it brings up in-process
// `wfrepro serve` nodes on real loopback listeners, drives one seeded
// closed-loop workload against them over HTTP, checks every response byte
// against a non-serving engine's answer, and prints the figures.
//
//	bash perfbench/run.sh --workload warm-hit --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics, taken from the span trees the server records for each
// response and from the benchmark's own timings of the public functions
// that have no span. Each workload's figures end with one JSON line,
// {"correct", "attempted", "failed", "metrics"}, so for a single workload
// it is the last line of stdout. A wrong answer exits 1.
// See perfbench/README.md for the workloads and the metric definitions.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var trace int
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(names, ", ")+", or all (one after another)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same request streams")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "timed seconds")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository root, for the source digest")
	flag.Parse()
	cfg.trace = trace == 1
	var todo []workload
	for _, w := range workloads {
		if cfg.workload == w.name || cfg.workload == "all" {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s or all), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	fmt.Printf("# perfbench seed=%d seconds=%g trace=%d commit=%s source=%s go=%s nproc=%d gomaxprocs=%d\n",
		cfg.seed, cfg.seconds, trace, commit(), sourceDigest(cfg.root), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	code := 0
	for _, w := range todo {
		if c := runOne(w, cfg); c != 0 {
			code = c
		}
	}
	return code
}

// runOne runs one workload and prints its figures, ending with the
// result's JSON line; it returns the exit code the run earns.
func runOne(w workload, cfg config) int {
	fmt.Printf("# %s: %s\n", w.name, w.shape)
	o, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := map[string]any{}
	for _, d := range defs {
		v := o.metrics[d.name]
		fmt.Printf("# %s %-26s %14.6g %-8s\n", w.name, d.name, v, d.unit)
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	fmt.Printf("# %s samples=%d attempted=%d failed=%d error_rate=%.6g\n",
		w.name, o.samples, o.attempted, o.failed, ratio(float64(o.failed), float64(o.attempted)))
	for _, n := range o.notes {
		fmt.Printf("# %s: %s\n", w.name, n)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   o.failed == 0 && o.attempted > 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if o.failed > 0 || o.attempted == 0 {
		return 1
	}
	return 0
}

// commit is the VCS revision stamped into the build, when it was built
// inside a git checkout.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// sourceDigest names the code under test even without git: a SHA-256 over
// every Go source and go.mod below root, in path order.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

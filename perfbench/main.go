// Command perfbench is the repository's end-to-end benchmark. It drives the
// program only through its public entry points — the ertree facade, the
// engine, the HTTP server and the backend/driver registries — checks every
// op against serial alpha-beta, and prints the end-to-end metrics of one
// workload (or, with --trace 1, the per-layer metrics of a traced run) with
// a JSON summary as the last line. README.md explains the workloads.
//
//	bash perfbench/run.sh --workload solve --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// traceDir receives the Perfetto trace of a traced run; run.sh keeps its
// build there too, and the repository ignores it.
const traceDir = ".bench_build"

func main() { os.Exit(run()) }

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func run() int {
	name := flag.String("workload", "", "workload: solve, mtdf or serve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 adds a traced run and prints the per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload solve|mtdf|serve --seed N --seconds S --trace 0|1")
		return 2
	}
	workers := runtime.NumCPU()
	c := w.corpus(*seed, *seconds)
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *traced)
	fmt.Printf("host: nproc=%d gomaxprocs=%d go=%s cpu=%q\n", workers, gomaxprocs(), runtime.Version(), cpuModel())
	fmt.Printf("input: fingerprint=%s positions=%d requests=%d\n", c.fingerprint(), len(c.items), len(c.requests))

	base, err := w.run(c, *seconds, workers, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	report("untraced", base)
	if b := beyond(len(base.ops), 0.9); b < minBeyond {
		fmt.Fprintf(os.Stderr, "perfbench: only %d ops, %d beyond p90 (need %d): lengthen --seconds\n", len(base.ops), b, minBeyond)
		return 1
	}
	metrics, units := endToEnd(base), endToEndDefs
	last := base
	correct := len(base.mismatch) == 0
	if *traced == 1 {
		registerWrappers()
		t := newTracer(workers)
		p, err := w.run(c, *seconds, workers, t)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		report("traced", p)
		t.addOps(p.ops)
		path := filepath.Join(traceDir, fmt.Sprintf("perfbench-%s-%d.json", w.name, *seed))
		err = os.MkdirAll(traceDir, 0o755)
		if err == nil {
			err = t.writePerfetto(path, "perfbench "+w.name)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: perfetto trace:", err)
		} else {
			fmt.Printf("trace: %s (%d spans)\n", path, len(t.spans))
		}
		metrics, units = perLayer(w, base, p, t, microbench(c.items), workers), perLayerDefs()
		last = p
		correct = correct && len(p.mismatch) == 0
	}

	out := summary{Correct: correct, Attempted: len(last.ops), Failed: len(last.ops) - last.okOps, Metrics: map[string]metricOut{}}
	for _, d := range units {
		v := metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON has no infinities: a percentile that landed on failed ops
			// is reported as the largest float, which fails any bound.
			v = math.MaxFloat64
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("metric %-34s %14.6g %s\n", d.name, v, d.unit)
	}
	js, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(js))
	if !correct {
		return 1
	}
	return 0
}

// report prints a phase's run metadata and any oracle mismatches.
func report(label string, p *phase) {
	fmt.Printf("%s: ops=%d ok=%d mismatches=%d wall_s=%.3f steal_share=%.4f gc_cycles=%.0f anomalies=%.0f\n",
		label, len(p.ops), p.okOps, len(p.mismatch), p.wall.Seconds(), p.steal,
		p.rt1.gcCycles-p.rt0.gcCycles, p.layer["obs.anomalies"])
	errs := map[string]int{}
	for _, o := range p.ops {
		if o.err != nil {
			errs[o.err.Error()]++
		} else if !o.full {
			errs["incomplete (short of the requested depth)"]++
		}
	}
	keys := make([]string, 0, len(errs))
	for k := range errs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s: failed x%d: %s\n", label, errs[k], strings.TrimSpace(k))
	}
	for i, m := range p.mismatch {
		if i == 20 {
			fmt.Printf("%s: ... %d more mismatches\n", label, len(p.mismatch)-i)
			break
		}
		fmt.Printf("%s: MISMATCH %s\n", label, m)
	}
}

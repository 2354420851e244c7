package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"ertree"
	"ertree/internal/core"
)

// metricDef is one reported metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

// endToEndDefs are the metrics a user of the program sees, from the
// untraced run.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_ms_p50", "ms", "lower"},
	{"latency_ms_p90", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"ok_share", "share", "higher"},
	{"rss_mb", "MB", "lower"},
}

var leafFamilies = []string{"othello", "connect4", "checkers", "randtree"}

// perLayerDefs are the traced run's metrics. A layer a workload bypasses
// reads 0 there.
func perLayerDefs() []metricDef {
	d := []metricDef{
		{"core.busy_share.serial", "share", "lower"},
		{"core.busy_share.expand", "share", "lower"},
		{"core.busy_share.examine", "share", "lower"},
		{"core.busy_share.leaf", "share", "lower"},
		{"core.busy_share.spec", "share", "lower"},
		{"core.idle_share", "share", "lower"},
		{"core.spec_share", "share", "lower"},
		{"core.wasted_spec_share", "share", "lower"},
		{"core.nodes_per_op", "count/op", "lower"},
		{"core.heap_ops_per_op", "count/op", "lower"},
		{"core.spec_pops_per_op", "count/op", "lower"},
		{"game.evals_per_op", "count/op", "lower"},
	}
	for _, f := range leafFamilies {
		d = append(d, metricDef{"game.children_ns." + f, "ns", "lower"}, metricDef{"game.value_ns." + f, "ns", "lower"})
	}
	d = append(d, []metricDef{
		{"tt.probes_per_op", "count/op", "lower"},
		{"tt.hit_share", "share", "higher"},
		{"tt.cutoff_share", "share", "higher"},
		{"tt.stores_per_op", "count/op", "lower"},
		{"tt.fill_share", "share", "higher"},
		{"tt.probe_ns", "ns", "lower"},
		{"tt.store_ns", "ns", "lower"},
		{"driver.searches_per_iteration", "count", "lower"},
		{"driver.probes_per_op", "count/op", "lower"},
		{"driver.researches_per_op", "count/op", "lower"},
		{"backend.searches_per_op", "count/op", "lower"},
		{"backend.search_ms_p50", "ms", "lower"},
		{"backend.self_ms_per_op", "ms/op", "lower"},
		{"engine.iterations_per_op", "count/op", "lower"},
		{"engine.self_ms_per_op", "ms/op", "lower"},
		{"engine.admission_wait_ms_p90", "ms", "lower"},
		{"serve.self_ms_p50", "ms", "lower"},
		{"serve.cache_hit_share", "share", "higher"},
		{"serve.coalesced_share", "share", "higher"},
		{"serve.shed_share", "share", "lower"},
		{"obs.anomalies", "count", "lower"},
		{"runtime.alloc_bytes_per_op", "B/op", "lower"},
		{"runtime.gc_cpu_share", "share", "lower"},
		{"runtime.sched_latency_ms_p90", "ms", "lower"},
		{"split.serve_ms_per_op", "ms/op", "lower"},
		{"split.engine_ms_per_op", "ms/op", "lower"},
		{"split.driver_ms_per_op", "ms/op", "lower"},
		{"split.backend_ms_per_op", "ms/op", "lower"},
		{"split.core_sched_ms_per_op", "ms/op", "lower"},
		{"split.core_task_ms_per_op", "ms/op", "lower"},
		{"split.trace_ms_per_op", "ms/op", "lower"},
		{"split.latency_ms_per_op", "ms/op", "lower"},
		{"meta.nproc", "count", "higher"},
		{"meta.gomaxprocs", "count", "higher"},
		{"meta.steal_share", "share", "lower"},
		{"meta.gc_cycles", "count", "lower"},
		{"meta.ops", "count", "higher"},
	}...)
	for _, e := range endToEndDefs {
		d = append(d, metricDef{"trace.overhead." + e.name, "share", "lower"})
	}
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd computes the user-visible metrics of a measured phase. A failed
// op counts as infinitely slow in the latency percentiles, so failures can
// only raise them.
func endToEnd(p *phase) map[string]float64 {
	n := float64(len(p.ops))
	lat := make([]float64, len(p.ops))
	for i := range p.ops {
		lat[i] = ms(p.ops[i].latency())
		if p.ops[i].err != nil || !p.ops[i].full {
			lat[i] = math.Inf(1)
		}
	}
	return map[string]float64{
		"setup_s":        median(p.setup),
		"ops_per_s":      float64(p.okOps) / p.wall.Seconds(),
		"latency_ms_p50": percentile(lat, 0.5),
		"latency_ms_p90": percentile(lat, 0.9),
		"cpu_ms_per_op":  ms(p.cpu) / n,
		"ok_share":       float64(p.okOps) / n,
		"rss_mb":         p.rssMB,
	}
}

// perLayer computes the traced run's metrics. base is the untraced phase of
// the same run, for tracing overhead and the run metadata.
func perLayer(w workload, base, p *phase, t *tracer, micro map[string]float64, workers int) map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayerDefs() {
		m[d.name] = 0
	}
	for k, v := range micro {
		m[k] = v
	}
	for k, v := range p.layer {
		m[k] = v
	}
	n := float64(len(p.ops))
	perOp := func(d time.Duration) float64 { return ms(d) / n }

	var busy time.Duration
	for _, b := range t.busy {
		busy += b
	}
	if busy > 0 {
		share := func(k core.TaskKind) float64 { return float64(t.busy[k]) / float64(busy) }
		m["core.busy_share.serial"] = share(core.TaskSerial)
		m["core.busy_share.expand"] = share(core.TaskExpand)
		m["core.busy_share.examine"] = share(core.TaskExamine)
		m["core.busy_share.leaf"] = share(core.TaskLeaf)
		m["core.busy_share.spec"] = share(core.TaskSpec)
		m["core.spec_share"] = float64(t.specTime) / float64(busy)
	}
	if t.workerTime > 0 {
		m["core.idle_share"] = 1 - float64(busy)/float64(t.workerTime)
	}
	if t.flightTotal > 0 {
		m["core.wasted_spec_share"] = float64(t.flightWaste) / float64(t.flightTotal)
	}
	m["core.nodes_per_op"] = float64(t.totals.Nodes) / n
	m["core.heap_ops_per_op"] = float64(t.totals.HeapOps) / n
	m["core.spec_pops_per_op"] = float64(t.totals.SpecPops) / n
	m["game.evals_per_op"] = float64(t.evals) / n

	probes := float64(t.ttProbes.Load())
	m["tt.probes_per_op"] = probes / n
	if probes > 0 {
		m["tt.hit_share"] = float64(t.ttHits.Load()) / probes
	}
	if t.totals.TTProbes > 0 {
		m["tt.cutoff_share"] = float64(t.totals.TTCutoffs) / float64(t.totals.TTProbes)
	}
	m["tt.stores_per_op"] = float64(t.ttStores.Load()) / n

	if t.resolves > 0 {
		m["driver.searches_per_iteration"] = float64(t.probeCalls) / float64(t.resolves)
	}
	m["driver.probes_per_op"] = float64(t.driverProbes) / n
	m["driver.researches_per_op"] = float64(t.researches) / n
	m["engine.iterations_per_op"] = float64(t.resolves) / n

	// The layer split. Each layer's self time is its spans minus the part
	// its children cover; summed over the run and divided by the ops, the
	// layers add up to the mean traced latency, split.latency. The tracer's
	// own bookkeeping is taken out of the layer it ran in and reported as
	// split.trace.
	var latency, session time.Duration
	for i := range p.ops {
		o := &p.ops[i]
		latency += o.latency()
		if !o.hot {
			// Responses report whole milliseconds, truncated: add back
			// the mean truncation so the estimate is unbiased.
			session += o.elapsed + time.Millisecond/2
		}
	}
	// Engine code between a driver's probe and the backend search.
	glue := t.probeTime - t.searchTime - t.bkSearch
	task := t.searchTime - t.searchSelf // the union of the workers' task spans
	split := map[string]time.Duration{
		"core_task": task,
		"trace":     t.bkSearch + t.bkProbe + t.bkResolve,
	}
	switch w.name {
	case "solve":
		// The op is the facade call, which is the core search: outside its
		// workers' task spans the core schedules, starts and joins them.
		split["core_sched"] = latency - task - t.bkSearch
	case "mtdf":
		split["backend"] = t.searchSelf
		split["driver"] = t.resolveTime - t.probeTime - t.bkProbe
		split["engine"] = latency - t.resolveTime + glue - t.bkResolve
	case "serve":
		split["backend"] = t.searchSelf
		split["driver"] = t.resolveTime - t.probeTime - t.bkProbe
		// Requests and sessions cannot be joined span by span from outside
		// the program, so the serve layer here includes the engine's own
		// session code; engine.self_ms_per_op estimates that part from the
		// session times the responses report (whole milliseconds).
		split["serve"] = latency - t.resolveTime + glue - t.bkResolve
		m["engine.self_ms_per_op"] = perOp(session - t.resolveTime + glue - t.bkResolve)
		self := make([]float64, len(p.ops))
		for i := range p.ops {
			o := &p.ops[i]
			d := o.latency()
			if !o.hot {
				d -= o.elapsed
			}
			self[i] = ms(d)
		}
		m["serve.self_ms_p50"] = percentile(self, 0.5)
	}
	if w.name == "mtdf" {
		m["engine.self_ms_per_op"] = perOp(split["engine"])
	}
	if w.name != "solve" {
		m["backend.searches_per_op"] = float64(t.searches) / n
		m["backend.search_ms_p50"] = percentile(t.searchMS, 0.5)
		m["backend.self_ms_per_op"] = perOp(split["backend"])
	}
	for k, d := range split {
		m["split."+k+"_ms_per_op"] = perOp(d)
	}
	m["split.latency_ms_per_op"] = perOp(latency)

	m["runtime.alloc_bytes_per_op"] = (p.rt1.allocBytes - p.rt0.allocBytes) / n
	if p.cpu > 0 {
		m["runtime.gc_cpu_share"] = (p.rt1.gcCPU - p.rt0.gcCPU) / p.cpu.Seconds()
	}
	m["runtime.sched_latency_ms_p90"] = 1000 * schedLatencyP90(p.rt0, p.rt1)

	m["meta.nproc"] = float64(workers)
	m["meta.gomaxprocs"] = float64(gomaxprocs())
	m["meta.steal_share"] = base.steal
	m["meta.gc_cycles"] = base.rt1.gcCycles - base.rt0.gcCycles
	m["meta.ops"] = float64(len(base.ops))

	e0, e1 := endToEnd(base), endToEnd(p)
	for _, d := range endToEndDefs {
		v := e1[d.name]/e0[d.name] - 1
		if d.name == "ok_share" {
			v = e1[d.name] - e0[d.name]
		}
		m["trace.overhead."+d.name] = v
	}
	return m
}

// promBuckets sums a Prometheus histogram's cumulative buckets across label
// sets, keyed by upper bound.
func promBuckets(text, name string) map[float64]float64 {
	out := map[float64]float64{}
	prefix := name + "_bucket{"
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		i := strings.Index(line, `le="`)
		if i < 0 {
			continue
		}
		rest := line[i+4:]
		j := strings.IndexByte(rest, '"')
		sp := strings.LastIndexByte(line, ' ')
		if j < 0 || sp < 0 {
			continue
		}
		le, err1 := strconv.ParseFloat(rest[:j], 64)
		v, err2 := strconv.ParseFloat(line[sp+1:], 64)
		if err1 == nil && err2 == nil {
			out[le] += v
		}
	}
	return out
}

// admissionP90 is the p90 admission wait (seconds) of the requests counted
// between two cumulative bucket readings.
func admissionP90(before, after map[float64]float64) float64 {
	var les []float64
	for le := range after {
		les = append(les, le)
	}
	sort.Float64s(les)
	counts := make([]float64, len(les))
	var prev float64
	for i, le := range les {
		cum := after[le] - before[le]
		counts[i] = cum - prev
		prev = cum
	}
	return histQuantile(counts, les, 0.9)
}

// microbench measures the leaf layers from outside: ns per Children() and
// Value() on the workload's own positions, and ns per ProbeDeep/StoreDeep
// on a default-size lock-free table.
func microbench(items []item) map[string]float64 {
	m := map[string]float64{}
	byFam := map[string][]ertree.Position{}
	for i := range items {
		f := items[i].fam.name
		if len(byFam[f]) < 64 {
			byFam[f] = append(byFam[f], items[i].pos)
		}
	}
	var sink int64
	for f, ps := range byFam {
		m["game.children_ns."+f] = nsPerCall(len(ps), func(i int) { sink += int64(len(ps[i].Children())) })
		m["game.value_ns."+f] = nsPerCall(len(ps), func(i int) { sink += int64(ps[i].Value()) })
	}
	table, err := ertree.NewSearchTable(ertree.TableLockFree, mtdfTableBits, 0)
	if err != nil {
		panic(err) // the lock-free implementation is always registered
	}
	const keys = 1 << 16
	key := func(i int) uint64 { return uint64(i+1) * 0x9E3779B97F4A7C15 }
	m["tt.store_ns"] = nsPerCall(keys, func(i int) { table.StoreDeep(key(i), i&7, ertree.Value(i), 0) })
	m["tt.probe_ns"] = nsPerCall(keys, func(i int) {
		if e, ok := table.ProbeDeep(key(i), 0); ok {
			sink += int64(e.Value)
		}
	})
	sinkHole = sink
	return m
}

var sinkHole int64

// nsPerCall runs call over i = 0..n-1 repeatedly for at least 30ms and
// returns the mean time per call.
func nsPerCall(n int, call func(i int)) float64 {
	start := time.Now()
	calls := 0
	for time.Since(start) < 30*time.Millisecond {
		for i := 0; i < n; i++ {
			call(i)
		}
		calls += n
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// BenchmarkRealSpeedup measures the real (goroutine) runtime the way the
// paper measured its Sequent implementation: wall-clock time of the same
// search at increasing processor counts. It complements the simulator
// benchmarks above — the simulator reports the model's speedup, this reports
// the hardware's — and writes its measurements to BENCH_core.json so runs on
// real multicore hosts leave a comparable artifact. On a single-CPU host the
// curve is flat (workers interleave); the artifact records the host's CPU
// count so readers can tell.
package ertree_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"ertree"
	"ertree/internal/engine"
	"ertree/internal/experiments"
	"ertree/internal/flight"
	"ertree/internal/telemetry"
)

// realSpeedupPoint is one (workload, backend, worker-count, heap-mode)
// measurement.
type realSpeedupPoint struct {
	Workload  string  `json:"workload"`
	Backend   string  `json:"backend"` // search backend: er, serial, lazysmp
	Table     string  `json:"table"`   // shared-table implementation: lockfree
	Workers   int     `json:"workers"`
	Sharded   bool    `json:"sharded"` // er only: work-stealing heap vs. global heap
	ElapsedNS int64   `json:"elapsed_ns"`
	Speedup   float64 `json:"speedup"` // T(1, global) / T(P) for the same workload
	Value     int     `json:"value"`
	Nodes     int64   `json:"nodes"`
	Steals    int64   `json:"steals,omitempty"`
	TTProbes  int64   `json:"tt_probes"`
	TTHits    int64   `json:"tt_hits"`
	TTStores  int64   `json:"tt_stores"`
	TTCutoffs int64   `json:"tt_cutoffs"`
	TTHitRate float64 `json:"tt_hit_rate"`
}

// driverSweepPoint is one (workload, root-driver) deepening measurement at
// the highest worker count: a full engine session (iterative deepening to the
// workload's depth on a fresh shared table) resolved by the named driver,
// with the driver's probe/re-search spend and the table pressure it induced.
type driverSweepPoint struct {
	Workload   string  `json:"workload"`
	Driver     string  `json:"driver"` // root driver: aspiration, mtdf
	Workers    int     `json:"workers"`
	ElapsedNS  int64   `json:"elapsed_ns"`
	Speedup    float64 `json:"speedup"` // T(aspiration) / T(driver), same workload
	Value      int     `json:"value"`
	Nodes      int64   `json:"nodes"`
	Probes     int64   `json:"probes"`     // null-window probes spent (mtdf)
	Researches int64   `json:"researches"` // wide-window re-searches (aspiration reopens)
	TTProbes   int64   `json:"tt_probes"`
	TTHits     int64   `json:"tt_hits"`
	TTHitRate  float64 `json:"tt_hit_rate"`
}

// taskLatencySummary condenses the per-worker-count task-latency histogram:
// every task span observed at that processor count, across all workloads.
type taskLatencySummary struct {
	Workers int     `json:"workers"`
	Tasks   int64   `json:"tasks"`
	P50US   float64 `json:"p50_us"` // median task latency, microseconds
	P95US   float64 `json:"p95_us"`
	MeanUS  float64 `json:"mean_us"`
}

// specWasteSummary condenses the flight-recorder waste attribution per worker
// count: how much of the recorded busy time was speculative at all, and how
// much of it was provably wasted — the paper's §6 overhead, measured on the
// real runtime as P grows.
type specWasteSummary struct {
	Workers     int     `json:"workers"`
	Searches    int     `json:"searches"`
	SpecShare   float64 `json:"spec_share"`   // speculative fraction of recorded busy time
	WastedRatio float64 `json:"wasted_ratio"` // wasted-speculative fraction of recorded busy time
}

type realSpeedupArtifact struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU and GOMAXPROCS pin down the host the curves were measured on: a
	// single-CPU run (like the seed data) has flat curves by construction,
	// and a GOMAXPROCS cap below NumCPU caps the usable parallelism.
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
	TableBits  int `json:"table_bits"`
	// ShardedVsGlobal is the throughput ratio T(global)/T(sharded) at the
	// highest measured worker count, averaged over workloads: >1 means the
	// sharded heap wins where contention is worst.
	ShardedVsGlobal float64 `json:"sharded_vs_global_at_max_p"`
	// LazySMPVsER is the throughput ratio T(er, global)/T(lazysmp) at the
	// highest measured worker count, averaged over workloads: >1 means the
	// shared-hash-table scheduler beats the paper's ER scheduler on this
	// host — the comparison the 1990 paper couldn't run.
	LazySMPVsER float64 `json:"lazysmp_vs_er_at_max_p"`
	// MTDFVsAspiration is the deepening-throughput ratio
	// T(aspiration)/T(mtdf) at the highest measured worker count, averaged
	// over workloads: >1 means MTD(f)'s null-window probes against the shared
	// table beat the classic wide-window loop on this host.
	MTDFVsAspiration float64              `json:"mtdf_vs_aspiration_at_max_p"`
	Points           []realSpeedupPoint   `json:"points"`
	DriverSweep      []driverSweepPoint   `json:"driver_sweep"`
	TaskLatency      []taskLatencySummary `json:"task_latency"`
	SpecWaste        []specWasteSummary   `json:"spec_waste"`
}

// backendSweepPoint selects one (backend, worker-count) measurement of the
// head-to-head sweep.
type backendSweepPoint struct {
	backend string
	workers int
}

// backendSweepPoints lists the non-er measurements for one workload: the
// serial scout is one processor by definition; lazysmp walks the same worker
// ladder as er.
func backendSweepPoints() []backendSweepPoint {
	out := []backendSweepPoint{{backend: "serial", workers: 1}}
	for _, p := range realSpeedupWorkers() {
		out = append(out, backendSweepPoint{backend: "lazysmp", workers: p})
	}
	return out
}

// benchBackendSearch measures one backend point: best-of-reps wall clock of
// a full-window fixed-depth search on a fresh shared table (each measurement
// is a cold search, matching the er points).
func benchBackendSearch(b *testing.B, name string, workers int, w experiments.Workload, tableBits, reps int) (ertree.BackendResult, time.Duration) {
	var best ertree.BackendResult
	var bestElapsed time.Duration
	for r := 0; r < reps; r++ {
		table, err := ertree.NewSearchTable(ertree.TableLockFree, tableBits, 0)
		if err != nil {
			b.Fatal(err)
		}
		cfg := ertree.Config{
			Workers:     workers,
			SerialDepth: w.SerialDepth,
			Order:       w.Order,
			Table:       table,
		}
		t0 := time.Now()
		res, err := ertree.SearchWith(name, w.Root, w.Depth, cfg)
		elapsed := time.Since(t0)
		if err != nil {
			b.Fatalf("%s backend %s P=%d: %v", w.Name, name, workers, err)
		}
		if r == 0 || elapsed < bestElapsed {
			best, bestElapsed = res, elapsed
		}
	}
	return best, bestElapsed
}

// realSpeedupWorkers returns the measured processor counts: the paper's
// doubling ladder plus the host's CPU count, deduplicated and sorted.
func realSpeedupWorkers() []int {
	ps := []int{1, 2, 4, 8, runtime.NumCPU()}
	sort.Ints(ps)
	out := ps[:1]
	for _, p := range ps[1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}

func BenchmarkRealSpeedup(b *testing.B) {
	const tableBits = 18
	workloads := experiments.Table3()
	points := []realSpeedupPoint{}
	var lastSpeedup float64
	// One task-latency histogram per processor count, fed by search hooks:
	// the artifact summarizes how the work grain shifts as P grows.
	reg := telemetry.NewRegistry()
	taskHist := map[int]*telemetry.Histogram{}
	histFor := func(p int) *telemetry.Histogram {
		h, ok := taskHist[p]
		if !ok {
			h = reg.Histogram(fmt.Sprintf("bench_task_seconds_p%d", p),
				"Task latency at this worker count.",
				telemetry.ExponentialBuckets(1e-6, 2, 22))
			taskHist[p] = h
		}
		return h
	}
	// Elapsed per (workload, P, mode) at max P, for the sharded-vs-global
	// summary ratio. Each point is the best of a few repetitions: one cold
	// search is noisy at the millisecond scale and the comparison at max P is
	// the headline number.
	const reps = 3
	var ratioSum float64
	var ratioN int
	var lazyRatioSum float64
	var lazyRatioN int
	var mtdfRatioSum float64
	var mtdfRatioN int
	driverPoints := []driverSweepPoint{}
	// erModes are the heap variants measured per worker count: the global
	// heap (the serving default) and its work-stealing variant. The global
	// mode must come first: it is the T(1) denominator and the max-P
	// reference the sharded mode is divided by.
	erModes := []bool{false, true}
	// Per-worker-count waste attribution, rebuilt per iteration from each
	// search's flight log (the hooks are armed for spans anyway).
	type wasteAccum struct {
		wasted, spec, total time.Duration
		searches            int
	}
	waste := map[int]*wasteAccum{}
	for i := 0; i < b.N; i++ {
		points = points[:0]
		ratioSum, ratioN = 0, 0
		lazyRatioSum, lazyRatioN = 0, 0
		mtdfRatioSum, mtdfRatioN = 0, 0
		driverPoints = driverPoints[:0]
		waste = map[int]*wasteAccum{}
		for _, w := range workloads {
			base := int64(0)
			maxP := realSpeedupWorkers()[len(realSpeedupWorkers())-1]
			var globalAtMaxP int64
			for _, p := range realSpeedupWorkers() {
				for _, sharded := range erModes {
					hist := histFor(p)
					var best ertree.Result
					for r := 0; r < reps; r++ {
						// One search's telemetry shards, for the flight-log
						// waste attribution below.
						var telMu sync.Mutex
						var tels []ertree.WorkerTelemetry
						// A fresh table per measurement: each one is a cold
						// search, not a replay of the previous point's work.
						table, err := ertree.NewSearchTable(ertree.TableLockFree, tableBits, 0)
						if err != nil {
							b.Fatal(err)
						}
						cfg := ertree.Config{
							Workers:     p,
							SerialDepth: w.SerialDepth,
							Order:       w.Order,
							Sharded:     sharded,
							StealSeed:   uint64(r),
							Table:       table,
							Hooks: &ertree.SearchHooks{
								Spans:  true,
								Events: 1 << 16,
								OnWorkerDone: func(wt ertree.WorkerTelemetry) {
									for _, sp := range wt.Spans {
										hist.Observe((sp.End - sp.Start).Seconds())
									}
									telMu.Lock()
									tels = append(tels, wt)
									telMu.Unlock()
								},
							},
						}
						res, err := ertree.Search(w.Root, w.Depth, cfg)
						if err != nil {
							b.Fatalf("%s P=%d sharded=%v: %v", w.Name, p, sharded, err)
						}
						rep := flight.Build(tels, flight.Options{Workers: p})
						wa, ok := waste[p]
						if !ok {
							wa = &wasteAccum{}
							waste[p] = wa
						}
						wa.wasted += rep.WastedSpec.Time
						wa.spec += rep.UsefulSpec.Time + rep.WastedSpec.Time
						wa.total += rep.UsefulPrimary.Time + rep.UsefulSpec.Time + rep.WastedSpec.Time
						wa.searches++
						if r == 0 || res.Elapsed < best.Elapsed {
							best = res
						}
					}
					res := best
					if p == 1 && !sharded {
						base = res.Elapsed.Nanoseconds()
					}
					if p == maxP {
						if !sharded {
							globalAtMaxP = res.Elapsed.Nanoseconds()
						} else if res.Elapsed > 0 {
							ratioSum += float64(globalAtMaxP) / float64(res.Elapsed.Nanoseconds())
							ratioN++
						}
					}
					pt := realSpeedupPoint{
						Workload:  w.Name,
						Backend:   "er",
						Table:     ertree.TableLockFree,
						Workers:   p,
						Sharded:   sharded,
						ElapsedNS: res.Elapsed.Nanoseconds(),
						Value:     int(res.Value),
						Nodes:     res.Stats.Generated,
						Steals:    res.Steals,
						TTProbes:  res.TTProbes,
						TTHits:    res.TTHits,
						TTStores:  res.TTStores,
						TTCutoffs: res.TTCutoffs,
					}
					if res.Elapsed > 0 {
						pt.Speedup = float64(base) / float64(res.Elapsed.Nanoseconds())
					}
					if res.TTProbes > 0 {
						pt.TTHitRate = float64(res.TTHits) / float64(res.TTProbes)
					}
					if res.SerialTasks > 0 && res.TTProbes == 0 {
						b.Fatalf("%s P=%d: table attached but never probed", w.Name, p)
					}
					points = append(points, pt)
					lastSpeedup = pt.Speedup
				}
			}
			// Backend head-to-head on the same workload, same fresh-table
			// policy, same repetition discipline: the serial scout at P=1 and
			// Lazy-SMP across the ladder, with every point's Speedup on the
			// common T(1, er-global) denominator so the three curves read
			// side by side. The er curve is the non-sharded points above.
			erValue := points[len(points)-1].Value
			for _, bw := range backendSweepPoints() {
				res, elapsed := benchBackendSearch(b, bw.backend, bw.workers, w, tableBits, reps)
				if int(res.Value) != erValue {
					b.Fatalf("%s backend %s P=%d: value %d, er found %d",
						w.Name, bw.backend, bw.workers, res.Value, erValue)
				}
				pt := realSpeedupPoint{
					Workload:  w.Name,
					Backend:   bw.backend,
					Table:     ertree.TableLockFree,
					Workers:   bw.workers,
					ElapsedNS: elapsed.Nanoseconds(),
					Value:     int(res.Value),
					Nodes:     res.Totals.Nodes,
					TTProbes:  res.Totals.TTProbes,
					TTHits:    res.Totals.TTHits,
					TTStores:  res.Totals.TTStores,
					TTCutoffs: res.Totals.TTCutoffs,
				}
				if elapsed > 0 {
					pt.Speedup = float64(base) / float64(elapsed.Nanoseconds())
				}
				if res.Totals.TTProbes > 0 {
					pt.TTHitRate = float64(res.Totals.TTHits) / float64(res.Totals.TTProbes)
				}
				if bw.backend == "lazysmp" && bw.workers == maxP && elapsed > 0 {
					lazyRatioSum += float64(globalAtMaxP) / float64(elapsed.Nanoseconds())
					lazyRatioN++
				}
				points = append(points, pt)
			}
			// Root-driver head-to-head at max P: full deepening sessions (the
			// unit the drivers actually steer) on the default er backend, one
			// fresh engine-owned table per repetition so every driver pays the
			// same cold-table cost and the mtdf probes only ever hit entries
			// the session itself stored. Drivers() is sorted, so aspiration —
			// the Speedup denominator and the reference side of
			// mtdf_vs_aspiration_at_max_p — always runs first.
			var aspAtMaxP int64
			for _, dName := range ertree.Drivers() {
				var bestAn *engine.Analysis
				var bestStats engine.Stats
				for r := 0; r < reps; r++ {
					eng := engine.New(engine.Config{
						Driver:      dName,
						Workers:     maxP,
						SerialDepth: w.SerialDepth,
						Order:       w.Order,
						TableBits:   tableBits,
						// The ertree CLI's default half-window, so the
						// aspiration baseline matches what -driver users see.
						Delta: 25,
					})
					an, err := eng.Analyze(context.Background(), w.Root, w.Depth)
					if err != nil {
						b.Fatalf("%s driver %s P=%d: %v", w.Name, dName, maxP, err)
					}
					if !an.Completed {
						b.Fatalf("%s driver %s P=%d: session cut short", w.Name, dName, maxP)
					}
					if r == 0 || an.Elapsed < bestAn.Elapsed {
						bestAn, bestStats = an, eng.Stats()
					}
				}
				if int(bestAn.Value) != erValue {
					b.Fatalf("%s driver %s P=%d: value %d, er found %d",
						w.Name, dName, maxP, bestAn.Value, erValue)
				}
				var probes, researches int64
				for _, it := range bestAn.Iterations {
					probes += int64(it.Probes)
					researches += int64(it.Researches)
				}
				pt := driverSweepPoint{
					Workload:   w.Name,
					Driver:     dName,
					Workers:    maxP,
					ElapsedNS:  bestAn.Elapsed.Nanoseconds(),
					Value:      int(bestAn.Value),
					Nodes:      bestAn.Nodes,
					Probes:     probes,
					Researches: researches,
					TTProbes:   bestStats.TTProbes,
					TTHits:     bestStats.TTHits,
				}
				if bestStats.TTProbes > 0 {
					pt.TTHitRate = float64(bestStats.TTHits) / float64(bestStats.TTProbes)
				}
				switch {
				case dName == engine.DefaultDriver:
					aspAtMaxP = bestAn.Elapsed.Nanoseconds()
					pt.Speedup = 1
				case bestAn.Elapsed > 0 && aspAtMaxP > 0:
					pt.Speedup = float64(aspAtMaxP) / float64(bestAn.Elapsed.Nanoseconds())
					if dName == "mtdf" {
						mtdfRatioSum += pt.Speedup
						mtdfRatioN++
					}
				}
				driverPoints = append(driverPoints, pt)
			}
		}
	}
	b.ReportMetric(lastSpeedup, "speedup@maxP")
	shardedVsGlobal := 0.0
	if ratioN > 0 {
		shardedVsGlobal = ratioSum / float64(ratioN)
	}
	b.ReportMetric(shardedVsGlobal, "sharded/global@maxP")
	lazyVsER := 0.0
	if lazyRatioN > 0 {
		lazyVsER = lazyRatioSum / float64(lazyRatioN)
	}
	b.ReportMetric(lazyVsER, "lazysmp/er@maxP")
	mtdfVsAspiration := 0.0
	if mtdfRatioN > 0 {
		mtdfVsAspiration = mtdfRatioSum / float64(mtdfRatioN)
	}
	b.ReportMetric(mtdfVsAspiration, "mtdf/aspiration@maxP")

	art := realSpeedupArtifact{
		GoVersion:        runtime.Version(),
		GOOS:             runtime.GOOS,
		GOARCH:           runtime.GOARCH,
		NumCPU:           runtime.NumCPU(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		TableBits:        tableBits,
		ShardedVsGlobal:  shardedVsGlobal,
		LazySMPVsER:      lazyVsER,
		MTDFVsAspiration: mtdfVsAspiration,
		Points:           points,
		DriverSweep:      driverPoints,
	}
	for _, p := range realSpeedupWorkers() {
		h := histFor(p)
		n := h.Count()
		if n == 0 {
			continue
		}
		art.TaskLatency = append(art.TaskLatency, taskLatencySummary{
			Workers: p,
			Tasks:   n,
			P50US:   h.Quantile(0.5) * 1e6,
			P95US:   h.Quantile(0.95) * 1e6,
			MeanUS:  h.Sum() / float64(n) * 1e6,
		})
	}
	for _, p := range realSpeedupWorkers() {
		wa, ok := waste[p]
		if !ok || wa.total == 0 {
			continue
		}
		art.SpecWaste = append(art.SpecWaste, specWasteSummary{
			Workers:     p,
			Searches:    wa.searches,
			SpecShare:   float64(wa.spec) / float64(wa.total),
			WastedRatio: float64(wa.wasted) / float64(wa.total),
		})
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_core.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

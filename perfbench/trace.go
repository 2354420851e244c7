package main

import (
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ertree"
	"ertree/internal/backend"
	"ertree/internal/core"
	"ertree/internal/driver"
	"ertree/internal/flight"
	"ertree/internal/game"
	"ertree/internal/telemetry"
	"ertree/internal/tt"
)

// The traced run observes the program from outside only: a wrapper backend
// and wrapper drivers, registered under their own names, delegate to the
// real "er" backend and the real drivers and record a span around each call;
// the core's public hooks return per-worker task spans; a counting table
// wrapper counts the traffic the backend and core send to the shared table.
const (
	tracedBackendName    = "bench-er"
	tracedMTDFName       = "bench-mtdf"
	tracedAspirationName = "bench-aspiration"
)

// Flight-recorder sampling: every flightEvery-th search records its event
// log (a ring of flightEvents per worker), enough to split busy time into
// useful and wasted speculation without paying the ring on every search.
const (
	flightEvery  = 8
	flightEvents = 1 << 12
	// maxTraceSpans caps the spans kept for the Perfetto file.
	maxTraceSpans = 100_000
)

// Perfetto tracks.
const (
	trackOp = iota + 1
	trackResolve
	trackProbe
	trackBackend
	trackWorker0 = 10
)

// active is the tracer of the running traced phase; nil outside it, where
// the wrappers only delegate.
var active atomic.Pointer[tracer]

var registerOnce sync.Once

// registerWrappers adds the wrapper backend and drivers to the registries.
// It runs only before a traced phase, so engines built for untraced phases
// never construct them.
func registerWrappers() {
	registerOnce.Do(func() {
		backend.Register(tracedBackendName, func(cfg backend.Config) backend.Backend {
			if !tt.IsNil(cfg.Table) {
				cfg.Table = countingTable{cfg.Table}
			}
			inner, err := backend.New("er", cfg)
			if err != nil {
				panic(err) // "er" is registered by the backend package itself
			}
			return tracedBackend{inner}
		})
		for name, inner := range map[string]string{tracedMTDFName: "mtdf", tracedAspirationName: "aspiration"} {
			name, inner := name, inner
			driver.Register(name, func(cfg driver.Config) driver.Driver {
				d, err := driver.New(inner, cfg)
				if err != nil {
					panic(err) // both drivers are registered by the driver package itself
				}
				return tracedDriver{name: name, inner: d}
			})
		}
	})
}

// tracer accumulates one traced phase. Totals are run totals; the layer
// split divides them by the ops attempted.
type tracer struct {
	workers int
	epoch   time.Time
	nsearch atomic.Int64 // searches started, for flight sampling

	ttProbes, ttHits, ttStores atomic.Int64 // counted at the table wrapper

	mu sync.Mutex
	// Driver layer.
	resolves, probeCalls, driverProbes, researches int64
	resolveTime, probeTime                         time.Duration
	// Backend layer (or, on solve, the facade's core search).
	searches                 int64
	searchTime, searchSelf   time.Duration // searchSelf: outside every task span
	searchMS                 []float64
	workerTime               time.Duration // workers × search span, the idle-share denominator
	busy                     [core.NumTaskKinds]time.Duration
	specTime                 time.Duration
	totals                   backend.Totals
	evals                    int64 // static evaluations (solve only: the facade reports them)
	flightTotal, flightWaste time.Duration
	spans                    []telemetry.TraceSpan
	// The tracer's own bookkeeping, by the span it runs inside: after a
	// search (inside a driver probe, or inside the op on solve), after a
	// probe (inside its resolve) and after a resolve (inside the op).
	bkSearch, bkProbe, bkResolve time.Duration
}

func newTracer(workers int) *tracer {
	return &tracer{workers: workers, epoch: time.Now()}
}

func (t *tracer) span(track int, name string, s, e time.Time) {
	if len(t.spans) >= maxTraceSpans {
		return
	}
	t.spans = append(t.spans, telemetry.TraceSpan{
		Track: track, Name: name,
		StartUS: s.Sub(t.epoch).Microseconds(), DurUS: e.Sub(s).Microseconds(),
	})
}

// addOps adds the ops' spans to the Perfetto file after the phase.
func (t *tracer) addOps(ops []outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range ops {
		t.span(trackOp, "op", ops[i].sent, ops[i].done)
	}
}

// hooks arms the core's telemetry for one search starting at start; sampled
// searches also record the flight log. collect returns the worker shards
// once the search has returned.
func (t *tracer) hooks(start time.Time) (h *core.Hooks, sampled bool, collect func() []core.WorkerTelemetry) {
	sampled = t.nsearch.Add(1)%flightEvery == 1
	var mu sync.Mutex
	var tels []core.WorkerTelemetry
	h = &core.Hooks{Epoch: start, Spans: true, OnWorkerDone: func(wt core.WorkerTelemetry) {
		mu.Lock()
		tels = append(tels, wt)
		mu.Unlock()
	}}
	if sampled {
		h.Events = flightEvents
	}
	return h, sampled, func() []core.WorkerTelemetry {
		mu.Lock()
		defer mu.Unlock()
		return tels
	}
}

// addSearch records one search: its span, its self time outside its
// workers' task spans (whose union is the core's busy wall time), busy time
// by task kind, and counters.
func (t *tracer) addSearch(name string, s, e time.Time, tot backend.Totals, tels []core.WorkerTelemetry, sampled bool) {
	var tasks []interval
	for i := range tels {
		for _, sp := range tels[i].Spans {
			tasks = append(tasks, interval{s.Add(sp.Start), s.Add(sp.End)})
		}
	}
	iv := interval{s, e}
	self := selfTime(iv, tasks)
	var rep *flight.Report
	if sampled {
		rep = flight.Build(tels, flight.Options{Workers: t.workers})
	}
	t.mu.Lock()
	defer func() {
		t.bkSearch += time.Since(e)
		t.mu.Unlock()
	}()
	t.searches++
	t.searchTime += iv.dur()
	t.searchSelf += self
	t.searchMS = append(t.searchMS, ms(iv.dur()))
	t.workerTime += time.Duration(t.workers) * iv.dur()
	t.totals.Add(tot)
	for i := range tels {
		for k, d := range tels[i].TaskTime {
			t.busy[k] += d
		}
		t.specTime += tels[i].SpecTime
	}
	if rep != nil {
		t.flightTotal += rep.UsefulPrimary.Time + rep.UsefulSpec.Time + rep.WastedSpec.Time
		t.flightWaste += rep.WastedSpec.Time
	}
	t.span(trackBackend, name, s, e)
	for i := range tels {
		for _, sp := range tels[i].Spans {
			t.span(trackWorker0+tels[i].Worker, sp.Kind.String(), s.Add(sp.Start), s.Add(sp.End))
		}
	}
}

// tracedBackend spans each Search of the real er backend and hands the core
// hooks that return its workers' task spans.
type tracedBackend struct{ inner backend.Backend }

func (b tracedBackend) Name() string { return tracedBackendName }

func (b tracedBackend) Search(req backend.Request) (backend.Response, error) {
	t := active.Load()
	if t == nil {
		return b.inner.Search(req)
	}
	start := time.Now()
	h, sampled, collect := t.hooks(start)
	req.Hooks = h
	resp, err := b.inner.Search(req)
	t.addSearch("backend.search", start, time.Now(), resp.Totals, collect(), sampled)
	return resp, err
}

// tracedDriver spans each Resolve of a real driver and each probe (search
// call) it issues.
type tracedDriver struct {
	name  string
	inner driver.Driver
}

func (d tracedDriver) Name() string { return d.name }

func (d tracedDriver) Resolve(search driver.Search, prev game.Value) (driver.Result, error) {
	t := active.Load()
	if t == nil {
		return d.inner.Resolve(search, prev)
	}
	start := time.Now()
	var calls int64
	var probeTime time.Duration
	res, err := d.inner.Resolve(func(w game.Window) (int, game.Value, error) {
		s := time.Now()
		m, v, err := search(w)
		e := time.Now()
		calls++
		probeTime += e.Sub(s)
		t.mu.Lock()
		t.span(trackProbe, "driver.probe", s, e)
		t.bkProbe += time.Since(e)
		t.mu.Unlock()
		return m, v, err
	}, prev)
	end := time.Now()
	t.mu.Lock()
	t.resolves++
	t.probeCalls += calls
	t.driverProbes += int64(res.Probes)
	t.researches += int64(res.Researches)
	t.resolveTime += end.Sub(start)
	t.probeTime += probeTime
	t.span(trackResolve, "driver.resolve", start, end)
	t.bkResolve += time.Since(end)
	t.mu.Unlock()
	return res, err
}

// countingTable counts the probes, hits and stores that reach the shared
// table while a traced phase runs.
type countingTable struct{ tt.SharedTable }

func countProbe(ok bool) {
	if t := active.Load(); t != nil {
		t.ttProbes.Add(1)
		if ok {
			t.ttHits.Add(1)
		}
	}
}

func countStore() {
	if t := active.Load(); t != nil {
		t.ttStores.Add(1)
	}
}

func (c countingTable) Probe(key uint64, depth int) (tt.Entry, bool) {
	e, ok := c.SharedTable.Probe(key, depth)
	countProbe(ok)
	return e, ok
}

func (c countingTable) ProbeDeep(key uint64, depth int) (tt.Entry, bool) {
	e, ok := c.SharedTable.ProbeDeep(key, depth)
	countProbe(ok)
	return e, ok
}

func (c countingTable) Store(key uint64, depth int, v game.Value, b tt.Bound) {
	c.SharedTable.Store(key, depth, v, b)
	countStore()
}

func (c countingTable) StoreDeep(key uint64, depth int, v game.Value, b tt.Bound) {
	c.SharedTable.StoreDeep(key, depth, v, b)
	countStore()
}

// writePerfetto writes the kept spans as a Chrome trace for Perfetto.
func (t *tracer) writePerfetto(path, process string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteTrace(f, process, t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// searchTraced runs one facade search with the core hooks armed (the solve
// workload's traced op: no backend sits between the caller and the core).
func (t *tracer) searchTraced(pos ertree.Position, depth int, cfg ertree.Config) (ertree.Result, error) {
	start := time.Now()
	h, sampled, collect := t.hooks(start)
	var st ertree.Stats
	cfg.Hooks, cfg.Stats = h, &st
	res, err := ertree.Search(pos, depth, cfg)
	end := time.Now()
	var tot backend.Totals
	tot.AddResult(res)
	t.addSearch("core.search", start, end, tot, collect(), sampled)
	t.mu.Lock()
	t.evals += st.Snapshot().TotalEvals()
	t.mu.Unlock()
	return res, err
}

package engine

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"ertree/internal/backend"
	"ertree/internal/core"
	"ertree/internal/telemetry"
	"ertree/internal/tt"
)

// Telemetry is the engine's metric family set. A multi-game server creates
// one per Registry and shares it across its engines; each engine labels its
// samples with its Config.Name. A nil *Telemetry disables recording.
type Telemetry struct {
	sessions   *telemetry.CounterVec   // engine_sessions_total{game,outcome}
	backends   *telemetry.CounterVec   // engine_backend_sessions_total{game,backend}
	drivers    *telemetry.CounterVec   // engine_driver_sessions_total{game,driver}
	probes     *telemetry.CounterVec   // engine_driver_probes_total{game,driver}
	latency    *telemetry.HistogramVec // engine_session_duration_seconds{game,outcome}
	admitWait  *telemetry.HistogramVec // engine_admission_wait_seconds{game}
	sheds      *telemetry.CounterVec   // engine_shed_total{game,cause}
	depth      *telemetry.HistogramVec // engine_session_depth{game}
	researches *telemetry.HistogramVec // engine_session_researches{game}
	nodes      *telemetry.CounterVec   // engine_session_nodes_total{game}
	coreTasks  *telemetry.CounterVec   // core_tasks_total{game,kind}
	heapOps    *telemetry.CounterVec   // core_heap_ops_total{game}
	ttOps      *telemetry.CounterVec   // core_tt_ops_total{game,op}
	ttFill     *telemetry.GaugeVec     // core_tt_fill_slots{game}
	ttHitRate  *telemetry.GaugeVec     // core_tt_hit_rate{game}
	ttGen      *telemetry.GaugeVec     // core_tt_generation{game}
}

// NewTelemetry registers the engine metric families on reg. Call once per
// registry (duplicate registration panics, by design).
func NewTelemetry(reg *telemetry.Registry) *Telemetry {
	return &Telemetry{
		sessions: reg.CounterVec("engine_sessions_total",
			"Analysis sessions by final outcome.", "game", "outcome"),
		backends: reg.CounterVec("engine_backend_sessions_total",
			"Admitted analysis sessions by search backend.", "game", "backend"),
		drivers: reg.CounterVec("engine_driver_sessions_total",
			"Admitted analysis sessions by root driver.", "game", "driver"),
		probes: reg.CounterVec("engine_driver_probes_total",
			"Null-window root probes spent by mtdf driver resolutions.", "game", "driver"),
		latency: reg.HistogramVec("engine_session_duration_seconds",
			"Session wall-clock duration.", telemetry.LatencyBuckets(), "game", "outcome"),
		admitWait: reg.HistogramVec("engine_admission_wait_seconds",
			"Time requests spent waiting for a session slot (admitted or not).",
			telemetry.ExponentialBuckets(0.0001, 2, 16), "game"),
		sheds: reg.CounterVec("engine_shed_total",
			"Admissions refused, by cause (full/timeout/cancelled).", "game", "cause"),
		depth: reg.HistogramVec("engine_session_depth",
			"Deepest completed iteration per session.", telemetry.LinearBuckets(1, 1, 24), "game"),
		researches: reg.HistogramVec("engine_session_researches",
			"Aspiration-window re-searches per session.", telemetry.LinearBuckets(0, 1, 8), "game"),
		nodes: reg.CounterVec("engine_session_nodes_total",
			"Tree nodes generated by analysis sessions.", "game"),
		coreTasks: reg.CounterVec("core_tasks_total",
			"Parallel-ER work units by kind (Tables 1-2 task taxonomy).", "game", "kind"),
		heapOps: reg.CounterVec("core_heap_ops_total",
			"Problem-heap pushes and pops.", "game"),
		ttOps: reg.CounterVec("core_tt_ops_total",
			"Transposition-table traffic from searches (probe/hit/store/cutoff).", "game", "op"),
		ttFill: reg.GaugeVec("core_tt_fill_slots",
			"Occupied transposition-table slots (sampled), updated at session end.", "game"),
		ttHitRate: reg.GaugeVec("core_tt_hit_rate",
			"Lifetime transposition-table hit rate (hits/probes), updated at session end.", "game"),
		ttGen: reg.GaugeVec("core_tt_generation",
			"Transposition-table aging generation (bumped per session, wraps at 256).", "game"),
	}
}

// Session outcome label values.
const (
	outcomeCompleted   = "completed"
	outcomeDeadlineCut = "deadline_cut"
	outcomeNoResult    = "no_result"
	outcomeRejected    = "rejected"
	outcomeFailed      = "failed"
)

// recordSession observes one finished session.
func (t *Telemetry) recordSession(game, outcome string, elapsed time.Duration, depth, researches int, nodes int64) {
	if t == nil {
		return
	}
	t.sessions.With(game, outcome).Inc()
	t.latency.With(game, outcome).Observe(elapsed.Seconds())
	if depth > 0 {
		t.depth.With(game).Observe(float64(depth))
	}
	t.researches.With(game).Observe(float64(researches))
	if nodes > 0 {
		t.nodes.With(game).Add(nodes)
	}
}

// recordBackendSession attributes one admitted session to the search backend
// serving it.
func (t *Telemetry) recordBackendSession(game, backend string) {
	if t == nil {
		return
	}
	t.backends.With(game, backend).Inc()
}

// recordDriverSession attributes one admitted session to the root driver
// resolving its iterations.
func (t *Telemetry) recordDriverSession(game, driver string) {
	if t == nil {
		return
	}
	t.drivers.With(game, driver).Inc()
}

// recordDriverProbes folds a finished session's null-window probe count into
// the per-driver counter (zero for aspiration sessions — no sample recorded).
func (t *Telemetry) recordDriverProbes(game, driver string, n int64) {
	if t == nil || n <= 0 {
		return
	}
	t.probes.With(game, driver).Add(n)
}

// recordRejection counts a refused admission. Rejected requests never ran,
// so they get no latency/depth observations.
func (t *Telemetry) recordRejection(game string) {
	if t == nil {
		return
	}
	t.sessions.With(game, outcomeRejected).Inc()
}

// recordAdmissionWait observes how long a request waited for a session slot.
// The fast path (free slot) records ~0; the interesting mass is queued waits,
// which is where serving latency hides once the pool saturates.
func (t *Telemetry) recordAdmissionWait(game string, wait time.Duration) {
	if t == nil {
		return
	}
	t.admitWait.With(game).Observe(wait.Seconds())
}

// recordShed counts one refused admission by cause ("full", "timeout",
// "cancelled"). Shed requests still record their admission wait — a timeout
// shed waited the full QueueTimeout, and that time was user-visible.
func (t *Telemetry) recordShed(game, cause string) {
	if t == nil {
		return
	}
	t.sheds.With(game, cause).Inc()
}

// recordCore folds a finished session's search totals into the registry.
func (t *Telemetry) recordCore(game string, c backend.Totals) {
	if t == nil {
		return
	}
	add := func(vec *telemetry.CounterVec, n int64, labels ...string) {
		if n > 0 {
			vec.With(labels...).Add(n)
		}
	}
	add(t.coreTasks, c.SerialTasks, game, "serial")
	add(t.coreTasks, c.LeafTasks, game, "leaf")
	add(t.coreTasks, c.SpecPops, game, "spec_pop")
	add(t.coreTasks, c.Dropped, game, "dropped")
	add(t.coreTasks, c.CutoffDrops, game, "cutoff_drop")
	add(t.coreTasks, c.Steals, game, "steal")
	add(t.coreTasks, c.StealFails, game, "steal_fail")
	add(t.heapOps, c.HeapOps, game)
	add(t.ttOps, c.TTProbes, game, "probe")
	add(t.ttOps, c.TTHits, game, "hit")
	add(t.ttOps, c.TTStores, game, "store")
	add(t.ttOps, c.TTCutoffs, game, "cutoff")
}

// recordTable samples the shared table's occupancy and aging generation at
// session end, with the engine's lifetime hit rate (its TTHits/TTProbes).
func (t *Telemetry) recordTable(game string, table tt.SharedTable, hitRate float64) {
	if t == nil {
		return
	}
	t.ttFill.With(game).Set(float64(table.Fill()))
	t.ttHitRate.With(game).Set(hitRate)
	t.ttGen.With(game).Set(float64(table.Generation()))
}

// traceCollector merges the worker telemetry of a session's successive
// core searches into one per-worker track (the searches share an epoch, so
// span offsets are already on the session's time axis). Safe for concurrent
// delivery from worker goroutines.
type traceCollector struct {
	mu       sync.Mutex
	byWorker map[int]*core.WorkerTelemetry
}

func newTraceCollector() *traceCollector {
	return &traceCollector{byWorker: make(map[int]*core.WorkerTelemetry)}
}

func (c *traceCollector) add(wt core.WorkerTelemetry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.byWorker[wt.Worker]; ok {
		m.Merge(wt)
	} else {
		cp := wt
		c.byWorker[wt.Worker] = &cp
	}
}

// workers returns the merged telemetry ordered by worker id.
func (c *traceCollector) workers() []core.WorkerTelemetry {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]int, 0, len(c.byWorker))
	for id := range c.byWorker {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]core.WorkerTelemetry, len(ids))
	for i, id := range ids {
		out[i] = *c.byWorker[id]
	}
	return out
}

// WriteWorkerTrace renders collected worker telemetry as a Chrome
// trace_event JSON (Perfetto-loadable): one thread track per worker with one
// span per task (categorized primary vs. speculative), plus a counter track
// of problem-heap sizes when heap sampling was enabled.
func WriteWorkerTrace(w io.Writer, process string, tels []core.WorkerTelemetry) error {
	tw := telemetry.NewTraceWriter(w)
	tw.ProcessName(1, process)
	var samples []core.HeapSample
	for _, wt := range tels {
		tw.ThreadName(1, int64(wt.Worker), fmt.Sprintf("worker %d", wt.Worker))
		for _, sp := range wt.Spans {
			cat := "primary"
			if sp.Spec {
				cat = "speculative"
			}
			tw.Complete(1, int64(wt.Worker), sp.Kind.String(), cat,
				sp.Start.Microseconds(), (sp.End - sp.Start).Microseconds(),
				map[string]any{"ply": sp.Ply})
		}
		samples = append(samples, wt.HeapSamples...)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].At < samples[j].At })
	for _, hs := range samples {
		tw.CounterSample(1, "problem heap", hs.At.Microseconds(),
			map[string]any{"primary": hs.Primary, "spec": hs.Spec})
	}
	return tw.Close()
}

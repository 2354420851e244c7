package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
	"time"

	"ertree/internal/telemetry"
)

// tick drives the monitor with a synthetic sample at a synthetic time: set
// the source to copy s (minus At), then Tick(at).
func tick(m *Monitor, at time.Time, s Sample) {
	m.SetSource(func(dst *Sample) {
		at := dst.At
		*dst = s
		dst.At = at
	})
	m.Tick(at)
}

// newTestMonitor builds a monitor with no CPU capture (keeps tests fast and
// avoids fighting over the process-global CPU profiler under -race).
func newTestMonitor(t *testing.T, cfg Config) *Monitor {
	t.Helper()
	if cfg.CPUProfile == 0 {
		cfg.CPUProfile = -1
	}
	m := New(cfg)
	t.Cleanup(m.Close)
	return m
}

func TestDisabledMonitorIsNilSafe(t *testing.T) {
	var m *Monitor
	id := m.SessionStart("req-1", time.Second)
	if id != -1 {
		t.Fatalf("nil monitor SessionStart = %d, want -1", id)
	}
	m.SessionProgress(id)
	m.SessionEnd(id)
	m.Tick(time.Now())
	m.Start()
	m.Close()
	if n := m.AnomalyTotal(); n != 0 {
		t.Fatalf("nil monitor AnomalyTotal = %d", n)
	}
	if r := m.Report(); r.Enabled {
		t.Fatal("nil monitor reports enabled")
	}
	if p := m.Profiles(); p != nil {
		t.Fatalf("nil monitor Profiles = %v", p)
	}
	var buf bytes.Buffer
	m.WriteText(&buf)
	if !strings.Contains(buf.String(), "disabled") {
		t.Fatalf("nil WriteText = %q", buf.String())
	}
}

// TestDisabledHeartbeatAllocFree pins the acceptance criterion: the disabled
// path of the per-session heartbeats is one nil check and zero allocations,
// exactly like the core hooks' disabled instrumentation.
func TestDisabledHeartbeatAllocFree(t *testing.T) {
	var m *Monitor
	allocs := testing.AllocsPerRun(1000, func() {
		id := m.SessionStart("label", time.Second)
		m.SessionProgress(id)
		m.SessionEnd(id)
		_ = m.AnomalyTotal()
	})
	if allocs != 0 {
		t.Fatalf("disabled heartbeat path allocates %.1f/op, want 0", allocs)
	}
}

// TestEnabledTickSteadyStateAllocFree pins the sampling-ring design goal: a
// tick that fires nothing writes into preallocated ring slots and scratch
// buffers — no background allocation from the sampler goroutine.
func TestEnabledTickSteadyStateAllocFree(t *testing.T) {
	m := newTestMonitor(t, Config{RingSlots: 32})
	var n int64
	m.SetSource(func(s *Sample) {
		n++
		s.Sessions = n
	})
	at := time.Now()
	for i := 0; i < 64; i++ { // wrap the ring so append never grows again
		at = at.Add(100 * time.Millisecond)
		m.Tick(at)
	}
	allocs := testing.AllocsPerRun(200, func() {
		at = at.Add(100 * time.Millisecond)
		m.Tick(at)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Tick allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkDisabledHeartbeat(b *testing.B) {
	var m *Monitor
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := m.SessionStart("label", time.Second)
		m.SessionProgress(id)
		m.SessionEnd(id)
	}
}

func TestShedSpikeFiresAndCoolsDown(t *testing.T) {
	var logBuf bytes.Buffer
	reg := telemetry.NewRegistry()
	m := newTestMonitor(t, Config{
		Window:   5 * time.Second,
		Cooldown: time.Minute,
		Logger:   slog.New(slog.NewJSONHandler(&logBuf, nil)),
		Registry: reg,
	})
	base := time.Now()
	tick(m, base, Sample{})
	tick(m, base.Add(time.Second), Sample{ShedTimeout: 30, ShedFull: 12})
	if got := m.AnomalyTotal(); got != 1 {
		t.Fatalf("AnomalyTotal = %d after a 42-shed second, want 1", got)
	}
	r := m.Report()
	if r.Totals[KindShedSpike] != 1 {
		t.Fatalf("totals = %v, want one %s", r.Totals, KindShedSpike)
	}
	if len(r.Anomalies) != 1 || r.Anomalies[0].Kind != KindShedSpike {
		t.Fatalf("anomalies = %+v", r.Anomalies)
	}
	// The firing captured a goroutine profile retrievable by the anomaly id.
	pid := r.Anomalies[0].ProfileID
	if pid == 0 {
		t.Fatal("anomaly has no profile id")
	}
	if b, ok := m.Profile(pid, "goroutine"); !ok || len(b) == 0 {
		t.Fatalf("goroutine profile for capture %d missing (ok=%v len=%d)", pid, ok, len(b))
	}
	// The counter and the structured warning both fired.
	if got := telemetry.NewRegistry; got == nil {
		t.Fatal("unreachable")
	}
	var metrics bytes.Buffer
	if err := reg.WriteText(&metrics); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics.String(), `obs_anomaly_total{kind="shed-spike"} 1`) {
		t.Fatalf("metrics missing obs_anomaly_total:\n%s", metrics.String())
	}
	if !strings.Contains(logBuf.String(), `"kind":"shed-spike"`) {
		t.Fatalf("no structured warning logged: %s", logBuf.String())
	}
	// Within the cooldown the same detector stays quiet even though the
	// window still shows the spike.
	tick(m, base.Add(2*time.Second), Sample{ShedTimeout: 60, ShedFull: 24})
	if got := m.AnomalyTotal(); got != 1 {
		t.Fatalf("AnomalyTotal = %d inside cooldown, want still 1", got)
	}
}

func TestProbeStormFires(t *testing.T) {
	m := newTestMonitor(t, Config{})
	base := time.Now()
	tick(m, base, Sample{Iterations: 100, Probes: 100})
	// 10 iterations resolving 640 probes: bisection territory.
	tick(m, base.Add(time.Second), Sample{Iterations: 110, Probes: 740})
	r := m.Report()
	if r.Totals[KindProbeStorm] != 1 {
		t.Fatalf("totals = %v, want one %s", r.Totals, KindProbeStorm)
	}
	// Healthy convergence (≈2 probes/iteration) must not fire.
	m2 := newTestMonitor(t, Config{})
	tick(m2, base, Sample{})
	tick(m2, base.Add(time.Second), Sample{Iterations: 100, Probes: 200})
	if got := m2.AnomalyTotal(); got != 0 {
		t.Fatalf("healthy probe traffic fired %d anomalies", got)
	}
}

func TestTTThrashFires(t *testing.T) {
	m := newTestMonitor(t, Config{Window: 4 * time.Second})
	base := time.Now()
	// Older half: 90% hit rate. Newer half: 30%, with 8 admitted sessions
	// (one aging tick each).
	tick(m, base, Sample{})
	tick(m, base.Add(2*time.Second), Sample{Sessions: 4, TTProbes: 1000, TTHits: 900, TTGenerations: 4})
	tick(m, base.Add(4*time.Second), Sample{Sessions: 8, TTProbes: 2000, TTHits: 1200, TTGenerations: 8})
	r := m.Report()
	if r.Totals[KindTTThrash] != 1 {
		t.Fatalf("totals = %v, want one %s", r.Totals, KindTTThrash)
	}
}

// TestTTThrashFiresAcrossGenerationWrap: a table's generation is a uint8, so
// the summed generations drop by 255 when a game's table wraps at its 256th
// session. The detector counts aging by sessions and must still fire on a
// window that spans the wrap while the hit rate collapses.
func TestTTThrashFiresAcrossGenerationWrap(t *testing.T) {
	m := newTestMonitor(t, Config{Window: 4 * time.Second})
	base := time.Now()
	tick(m, base, Sample{Sessions: 250, TTProbes: 50000, TTHits: 40000, TTGenerations: 250})
	tick(m, base.Add(2*time.Second), Sample{Sessions: 254, TTProbes: 51000, TTHits: 40900, TTGenerations: 254})
	tick(m, base.Add(4*time.Second), Sample{Sessions: 258, TTProbes: 52000, TTHits: 41200, TTGenerations: 2})
	r := m.Report()
	if r.Totals[KindTTThrash] != 1 {
		t.Fatalf("totals = %v, want one %s across the generation wrap", r.Totals, KindTTThrash)
	}
}

func TestStealStarvationFires(t *testing.T) {
	m := newTestMonitor(t, Config{})
	base := time.Now()
	tick(m, base, Sample{})
	tick(m, base.Add(time.Second), Sample{Steals: 10, StealFails: 990})
	r := m.Report()
	if r.Totals[KindStealStarvation] != 1 {
		t.Fatalf("totals = %v, want one %s", r.Totals, KindStealStarvation)
	}
}

func TestStallWatchdogFiresOncePerSession(t *testing.T) {
	m := newTestMonitor(t, Config{StallFactor: 3})
	id := m.SessionStart("req-stall", 100*time.Millisecond)
	if id < 0 {
		t.Fatalf("SessionStart = %d", id)
	}
	defer m.SessionEnd(id)
	// Well past 3× the 100ms budget with no progress heartbeat.
	future := time.Now().Add(2 * time.Second)
	tick(m, future, Sample{})
	r := m.Report()
	if r.Totals[KindStall] != 1 {
		t.Fatalf("totals = %v, want one %s", r.Totals, KindStall)
	}
	if got := r.Anomalies[0].RequestID; got != "req-stall" {
		t.Fatalf("stall anomaly request id = %q, want the session label", got)
	}
	// The slot is flagged: later ticks do not refire for the same session.
	tick(m, future.Add(time.Second), Sample{})
	if got := m.AnomalyTotal(); got != 1 {
		t.Fatalf("stall refired: AnomalyTotal = %d", got)
	}
	// A session that heartbeats is never flagged.
	m2 := newTestMonitor(t, Config{})
	id2 := m2.SessionStart("req-live", 100*time.Millisecond)
	m2.SessionProgress(id2)
	tick(m2, time.Now().Add(100*time.Millisecond), Sample{})
	m2.SessionEnd(id2)
	if got := m2.AnomalyTotal(); got != 0 {
		t.Fatalf("heartbeating session flagged as stalled: %d anomalies", got)
	}
}

func TestProfileRingBounded(t *testing.T) {
	r := newProfileRing(2)
	for i := int64(1); i <= 5; i++ {
		r.capture(i, "stall", time.Now(), -1)
	}
	got := r.list()
	if len(got) != 2 || got[0].ID != 4 || got[1].ID != 5 {
		t.Fatalf("profile ring = %+v, want captures 4 and 5", got)
	}
	if _, ok := r.get(1, "goroutine"); ok {
		t.Fatal("evicted capture still retrievable")
	}
	if _, ok := r.get(5, "cpu"); ok {
		t.Fatal("cpu bytes reported for a capture that skipped CPU profiling")
	}
	if b, ok := r.get(5, "goroutine"); !ok || len(b) == 0 {
		t.Fatal("goroutine profile missing from retained capture")
	}
}

func TestStartStopBackgroundSampler(t *testing.T) {
	m := New(Config{SampleEvery: time.Millisecond, CPUProfile: -1})
	var n int
	m.SetSource(func(s *Sample) { n++ })
	m.Start()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if r := m.Report(); len(r.Samples) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background sampler took no samples in 2s")
		}
		time.Sleep(time.Millisecond)
	}
	m.Close()
	m.Close() // idempotent
}

func TestWriteTextRendersState(t *testing.T) {
	m := newTestMonitor(t, Config{})
	base := time.Now()
	tick(m, base, Sample{})
	tick(m, base.Add(time.Second), Sample{ShedFull: 50, Sessions: 5, TTLen: 1024, TTFill: 100, TTProbes: 10, TTHits: 9})
	var buf bytes.Buffer
	m.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"detectors:", KindShedSpike, "FIRED", "anomalies", "latest:", "table:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteText missing %q:\n%s", want, out)
		}
	}
}

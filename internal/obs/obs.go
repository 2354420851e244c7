// Package obs is the engine's dependency-free self-monitoring subsystem: a
// bounded ring of timestamped gauge snapshots sampled from the running
// engine/serve stack, pluggable anomaly detectors that watch the ring for the
// serving pathologies the literature warns about (MTD(f) probe storms,
// admission shed spikes, transposition-table thrash, stalled sessions), and
// automatic capture of pprof profiles at the moment an anomaly fires — so a
// pathology is diagnosed from evidence taken while it happened, not
// reconstructed post-mortem.
//
// The whole subsystem follows the repository's pay-for-use telemetry
// discipline: a nil *Monitor is the disabled state, every exported method is
// nil-safe, and the per-session heartbeat calls on the disabled path cost one
// pointer test and zero allocations (pinned by an alloc test, like the core
// hooks). Enabled, the sampler runs one goroutine that writes into
// preallocated ring slots — steady-state ticks allocate nothing either; only
// a firing anomaly (rare by construction) allocates, for its detail string
// and captured profiles.
package obs

import (
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ertree/internal/telemetry"
)

// Sample is one timestamped snapshot of the monitored gauges. Instantaneous
// fields are point-in-time readings; the rest are cumulative counters, so
// detectors difference two samples to get a windowed rate.
type Sample struct {
	At time.Time `json:"at"`

	// Instantaneous.
	InFlight   int64  `json:"in_flight"`  // sessions holding an admission slot
	Waiting    int64  `json:"waiting"`    // admission queue depth
	Goroutines int64  `json:"goroutines"` // runtime.NumGoroutine
	HeapAlloc  uint64 `json:"heap_alloc"` // bytes of live heap objects
	TTFill     int64  `json:"tt_fill"`    // occupied table slots (sampled)
	TTLen      int64  `json:"tt_len"`     // table capacity

	// Cumulative.
	Sessions      int64 `json:"sessions"`       // admitted sessions
	Iterations    int64 `json:"iterations"`     // completed deepening iterations
	Probes        int64 `json:"probes"`         // root-driver null-window probes
	ShedFull      int64 `json:"shed_full"`      // immediate admission refusals
	ShedTimeout   int64 `json:"shed_timeout"`   // queue waits that expired
	ShedCancelled int64 `json:"shed_cancelled"` // callers that gave up queued
	TTProbes      int64 `json:"tt_probes"`      // shared-table probes
	TTHits        int64 `json:"tt_hits"`        // shared-table hits
	TTGenerations int64 `json:"tt_generations"` // table aging ticks
}

// Sheds returns the cumulative shed count across all causes.
func (s Sample) Sheds() int64 { return s.ShedFull + s.ShedTimeout + s.ShedCancelled }

// Anomaly is one detector firing: what was detected, when, and which captured
// profile (if any) holds the evidence.
type Anomaly struct {
	ID        int64     `json:"id"`
	Kind      string    `json:"kind"`
	At        time.Time `json:"at"`
	Detail    string    `json:"detail"`
	RequestID string    `json:"request_id,omitempty"` // correlating session label, when per-session
	ProfileID int64     `json:"profile_id,omitempty"` // retained pprof capture; 0 = none
}

// SessionBeat is the watchdog's view of one live session's heartbeat.
type SessionBeat struct {
	ID           int           `json:"id"`
	Label        string        `json:"label,omitempty"`
	Start        time.Time     `json:"start"`
	Budget       time.Duration `json:"budget"`
	LastProgress time.Time     `json:"last_progress"`
	Stalled      bool          `json:"stalled"`
}

// DetectorState is one detector's firing history for /debug/obs.
type DetectorState struct {
	Name       string `json:"name"`
	Fires      int64  `json:"fires"`
	LastFireMS int64  `json:"last_fire_unix_ms,omitempty"` // 0 = never fired
	LastDetail string `json:"last_detail,omitempty"`
}

// Defaults for Config's zero fields.
const (
	DefaultSampleEvery = 250 * time.Millisecond
	DefaultRingSlots   = 240 // one minute at the default interval
	DefaultWindow      = 5 * time.Second
	DefaultCooldown    = 10 * time.Second
	DefaultStallFactor = 3.0
	DefaultStallBudget = 10 * time.Second
	DefaultProfiles    = 4
	DefaultCPUProfile  = 250 * time.Millisecond
	DefaultMaxSessions = 256
)

// Config configures a Monitor. The zero value is usable: every field has a
// default.
type Config struct {
	SampleEvery time.Duration // sampling interval; 0 = DefaultSampleEvery
	RingSlots   int           // retained samples; 0 = DefaultRingSlots
	Window      time.Duration // detector lookback; 0 = DefaultWindow
	Cooldown    time.Duration // per-detector refractory period; 0 = DefaultCooldown; <0 = none
	StallFactor float64       // watchdog fires at StallFactor × session budget; 0 = DefaultStallFactor
	StallBudget time.Duration // assumed budget for sessions reporting none; 0 = DefaultStallBudget
	Profiles    int           // retained pprof captures; 0 = DefaultProfiles
	CPUProfile  time.Duration // CPU-profile duration per capture; 0 = DefaultCPUProfile; <0 disables
	MaxSessions int           // watchdog heartbeat slots; 0 = DefaultMaxSessions

	Logger    *slog.Logger        // anomaly warnings; nil = no logging
	Registry  *telemetry.Registry // registers obs_anomaly_total{kind}; nil = no metric
	Detectors []Detector          // nil = DefaultDetectors()
}

// Monitor samples gauges into a bounded ring and runs the anomaly detectors
// over it. A nil Monitor is the disabled state: every method is nil-safe and
// costs one pointer test.
type Monitor struct {
	cfg        Config
	log        *slog.Logger
	anomalyVec *telemetry.CounterVec

	mu            sync.Mutex
	source        func(*Sample)
	ring          *telemetry.Ring[Sample]
	detectors     []Detector
	states        []DetectorState
	anomalies     *telemetry.Ring[Anomaly]
	totals        map[string]int64
	seq           int64
	sampleScratch []Sample
	viewScratch   View
	tickScratch   Sample
	mem           runtime.MemStats

	anomalyTotal atomic.Int64

	beatMu      sync.Mutex
	beats       []beatSlot
	beatScratch []SessionBeat

	profiles *profileRing

	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// beatSlot is one watchdog heartbeat slot. Slots are preallocated; a session
// claims one at start and releases it at end, storing its progress timestamp
// with one atomic store per iteration.
type beatSlot struct {
	active  bool
	stalled bool
	label   string
	start   time.Time
	budget  time.Duration
	last    atomic.Int64 // UnixNano of the latest progress heartbeat
}

// New creates a monitor. It does not start sampling; call Start, or drive
// Tick manually (tests, one-shot CLI sessions).
func New(cfg Config) *Monitor {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = DefaultSampleEvery
	}
	if cfg.RingSlots <= 0 {
		cfg.RingSlots = DefaultRingSlots
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = DefaultCooldown
	}
	if cfg.StallFactor <= 0 {
		cfg.StallFactor = DefaultStallFactor
	}
	if cfg.StallBudget <= 0 {
		cfg.StallBudget = DefaultStallBudget
	}
	if cfg.Profiles <= 0 {
		cfg.Profiles = DefaultProfiles
	}
	if cfg.CPUProfile == 0 {
		cfg.CPUProfile = DefaultCPUProfile
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.Detectors == nil {
		cfg.Detectors = DefaultDetectors()
	}
	m := &Monitor{
		cfg:           cfg,
		log:           cfg.Logger,
		ring:          telemetry.NewRing[Sample](cfg.RingSlots),
		detectors:     cfg.Detectors,
		states:        make([]DetectorState, len(cfg.Detectors)),
		anomalies:     telemetry.NewRing[Anomaly](64),
		totals:        make(map[string]int64),
		sampleScratch: make([]Sample, 0, cfg.RingSlots),
		beats:         make([]beatSlot, cfg.MaxSessions),
		beatScratch:   make([]SessionBeat, 0, cfg.MaxSessions),
		profiles:      newProfileRing(cfg.Profiles),
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
	}
	for i, d := range m.detectors {
		m.states[i].Name = d.Name()
	}
	if cfg.Registry != nil {
		m.anomalyVec = cfg.Registry.CounterVec("obs_anomaly_total",
			"Anomalies detected by the self-monitor, by kind.", "kind")
	}
	return m
}

// SetSource installs the gauge-sampling callback the monitor invokes once per
// tick. The callback fills the engine/serve fields of the sample in place;
// the monitor adds the runtime gauges itself.
func (m *Monitor) SetSource(fn func(*Sample)) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.source = fn
	m.mu.Unlock()
}

// Start launches the background sampler. Safe to call on a nil monitor (the
// disabled path starts nothing) and idempotent.
func (m *Monitor) Start() {
	if m == nil {
		return
	}
	m.startOnce.Do(func() {
		go func() {
			defer close(m.done)
			t := time.NewTicker(m.cfg.SampleEvery)
			defer t.Stop()
			for {
				select {
				case <-m.stop:
					return
				case now := <-t.C:
					m.Tick(now)
				}
			}
		}()
	})
}

// Close stops the background sampler, if Start launched one. Nil-safe and
// idempotent.
func (m *Monitor) Close() {
	if m == nil {
		return
	}
	m.mu.Lock()
	select {
	case <-m.stop:
		m.mu.Unlock()
		return
	default:
		close(m.stop)
	}
	m.mu.Unlock()
	m.startOnce.Do(func() { close(m.done) }) // never started: unblock done
	<-m.done
}

// Tick takes one sample and runs the detectors. Start drives it from the
// sampler goroutine; tests and one-shot CLI sessions may call it directly.
func (m *Monitor) Tick(now time.Time) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// The sample is filled in a Monitor-owned scratch slot: passing a
	// stack-local's address through the source callback would force a heap
	// allocation per tick, and the sampler must not allocate in steady state.
	s := &m.tickScratch
	*s = Sample{At: now}
	if m.source != nil {
		m.source(s)
	}
	s.Goroutines = int64(runtime.NumGoroutine())
	runtime.ReadMemStats(&m.mem)
	s.HeapAlloc = m.mem.HeapAlloc
	m.ring.Push(*s)

	v := m.view(now)
	for i, d := range m.detectors {
		st := &m.states[i]
		if m.cfg.Cooldown > 0 && st.LastFireMS != 0 {
			if _, exempt := d.(cooldownExempt); !exempt &&
				now.Sub(time.UnixMilli(st.LastFireMS)) < m.cfg.Cooldown {
				continue
			}
		}
		for _, a := range d.Check(v) {
			if a.Kind == "" {
				a.Kind = d.Name()
			}
			m.emit(st, a, now)
		}
	}
}

// view assembles the detector input from the ring and the heartbeat slots,
// reusing the monitor's scratch buffers so steady-state ticks stay
// allocation-free.
func (m *Monitor) view(now time.Time) *View {
	m.sampleScratch = m.ring.Snapshot(m.sampleScratch[:0])
	v := &m.viewScratch
	*v = View{Now: now, cfg: &m.cfg, m: m}
	w := m.sampleScratch
	if len(w) == 0 {
		return v
	}
	v.Newest = w[len(w)-1]
	// Oldest within the detector window, and the sample nearest the window's
	// midpoint (the split detectors compare window halves around it).
	cut := now.Add(-m.cfg.Window)
	start := 0
	for start < len(w)-1 && w[start].At.Before(cut) {
		start++
	}
	v.Oldest = w[start]
	v.Samples = len(w) - start
	v.Span = v.Newest.At.Sub(v.Oldest.At)
	midAt := v.Oldest.At.Add(v.Span / 2)
	mid := start
	for mid < len(w)-1 && w[mid].At.Before(midAt) {
		mid++
	}
	v.Mid = w[mid]

	m.beatMu.Lock()
	m.beatScratch = m.beatScratch[:0]
	for i := range m.beats {
		b := &m.beats[i]
		if !b.active {
			continue
		}
		m.beatScratch = append(m.beatScratch, SessionBeat{
			ID:           i,
			Label:        b.label,
			Start:        b.start,
			Budget:       b.budget,
			LastProgress: time.Unix(0, b.last.Load()),
			Stalled:      b.stalled,
		})
	}
	m.beatMu.Unlock()
	v.Sessions = m.beatScratch
	return v
}

// emit records one anomaly: profile capture, retention ring, counters,
// detector state, and the structured warning. Called with mu held.
func (m *Monitor) emit(st *DetectorState, a Anomaly, now time.Time) {
	m.seq++
	a.ID = m.seq
	a.At = now
	a.ProfileID = m.profiles.capture(a.ID, a.Kind, now, m.cfg.CPUProfile)
	m.anomalies.Push(a)
	m.totals[a.Kind]++
	m.anomalyTotal.Add(1)
	st.Fires++
	st.LastFireMS = now.UnixMilli()
	st.LastDetail = a.Detail
	if m.anomalyVec != nil {
		m.anomalyVec.With(a.Kind).Inc()
	}
	if m.log != nil {
		m.log.Warn("obs anomaly",
			"kind", a.Kind,
			"anomaly_id", a.ID,
			"detail", a.Detail,
			"request_id", a.RequestID,
			"profile_id", a.ProfileID,
		)
	}
}

// markStalled flags a heartbeat slot so the watchdog fires once per session.
func (m *Monitor) markStalled(id int) {
	m.beatMu.Lock()
	if id >= 0 && id < len(m.beats) && m.beats[id].active {
		m.beats[id].stalled = true
	}
	m.beatMu.Unlock()
}

// SessionStart claims a watchdog heartbeat slot for a session with the given
// correlation label and time budget (0 = unknown; the watchdog assumes
// Config.StallBudget). Returns -1 on a nil monitor or when every slot is
// taken — the session simply runs unwatched. The disabled path is one nil
// check and allocates nothing.
func (m *Monitor) SessionStart(label string, budget time.Duration) int {
	if m == nil {
		return -1
	}
	now := time.Now()
	m.beatMu.Lock()
	for i := range m.beats {
		b := &m.beats[i]
		if b.active {
			continue
		}
		b.active, b.stalled = true, false
		b.label, b.start, b.budget = label, now, budget
		b.last.Store(now.UnixNano())
		m.beatMu.Unlock()
		return i
	}
	m.beatMu.Unlock()
	return -1
}

// SessionProgress records iteration progress for a claimed slot: one atomic
// store. id < 0 (nil monitor, or no free slot at start) is a no-op.
func (m *Monitor) SessionProgress(id int) {
	if m == nil || id < 0 || id >= len(m.beats) {
		return
	}
	m.beats[id].last.Store(time.Now().UnixNano())
}

// SessionEnd releases a claimed heartbeat slot. id < 0 is a no-op.
func (m *Monitor) SessionEnd(id int) {
	if m == nil || id < 0 || id >= len(m.beats) {
		return
	}
	m.beatMu.Lock()
	m.beats[id].active = false
	m.beats[id].label = ""
	m.beatMu.Unlock()
}

// AnomalyTotal returns the number of anomalies detected since start; 0 on a
// nil monitor. One atomic load, safe for exposition-time polling.
func (m *Monitor) AnomalyTotal() int64 {
	if m == nil {
		return 0
	}
	return m.anomalyTotal.Load()
}

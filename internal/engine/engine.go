// Package engine turns the repository's one-shot searches into a long-lived
// analysis engine: cancellable, time-managed sessions that drive iterative
// deepening with aspiration windows over parallel ER, share one concurrent
// transposition table per engine, and always have a best-move-so-far answer
// when a deadline cuts them short. It is the serving-shaped subsystem behind
// cmd/erserve.
package engine

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ertree/internal/backend"
	"ertree/internal/driver"
	"ertree/internal/game"
	"ertree/internal/obs"
	"ertree/internal/tt"

	// Register the lazysmp backend alongside the in-package er and serial
	// ones, so every engine user can select any of the three by name.
	_ "ertree/internal/lazysmp"
)

// Sentinel errors returned by Analyze.
var (
	// ErrBusy reports that every session slot was occupied and none freed
	// up within the admission timeout.
	ErrBusy = errors.New("engine: busy: no session slot within the admission timeout")
	// ErrNoMoves reports a position with no legal moves.
	ErrNoMoves = errors.New("engine: position has no legal moves")
	// ErrNoResult reports that the deadline expired before even the
	// depth-1 iteration completed, so there is no move to return.
	ErrNoResult = errors.New("engine: deadline expired before the first iteration completed")
	// ErrUnknownBackend reports a SessionOptions.Backend that names no
	// registered search backend; the wrapped message lists the valid set.
	ErrUnknownBackend = errors.New("engine: unknown search backend")
	// ErrUnknownDriver reports a SessionOptions.Driver that names no
	// registered root driver; the wrapped message lists the valid set.
	ErrUnknownDriver = errors.New("engine: unknown root driver")
)

// EnvBackend is the environment variable consulted when Config.Backend is
// empty, so a test matrix (CI's backend leg) can force every engine in the
// process onto one backend without threading a flag through each test.
const EnvBackend = "ERTREE_BACKEND"

// DefaultBackend is the search backend engines use when neither
// Config.Backend nor EnvBackend selects one: the paper's parallel ER
// scheduler, the behavior engines had before backends were selectable.
const DefaultBackend = "er"

// EnvDriver is the environment variable consulted when Config.Driver is
// empty, so a test matrix (CI's driver leg) can force every engine in the
// process onto one root driver without threading a flag through each test.
const EnvDriver = "ERTREE_DRIVER"

// DefaultDriver is the root driver engines use when neither Config.Driver
// nor EnvDriver selects one: the classic aspiration deepening loop, the
// behavior engines had before drivers were selectable.
const DefaultDriver = driver.Default

// Config configures an Engine.
type Config struct {
	// Name labels this engine's samples in the shared Telemetry — the game
	// key of a multi-game server (e.g. "othello"). Empty means "default".
	Name string
	// Backend selects the search backend sessions run on by default:
	// "er" (parallel ER, the paper's scheduler), "serial" (single-threaded
	// scout/PVS), or "lazysmp" (shared-table deepening workers). Empty
	// consults the ERTREE_BACKEND environment variable, then falls back to
	// DefaultBackend. Unknown names panic in New — validate user input with
	// backend.Valid first. Per-session overrides go through
	// SessionOptions.Backend.
	Backend string
	// Driver selects the root driver that resolves each deepening iteration:
	// "aspiration" (wide window around the previous value, the classic
	// loop) or "mtdf" (null-window probes against the shared table). Empty
	// consults the ERTREE_DRIVER environment variable, then falls back to
	// DefaultDriver. Unknown names panic in New — validate user input with
	// driver.Valid first. Per-session overrides go through
	// SessionOptions.Driver.
	Driver string
	// Workers is the parallel-ER worker count used by each search.
	// Defaults to 1.
	Workers int
	// SerialDepth is the remaining depth at or below which subtrees are
	// searched serially (the work grain of the core engine).
	SerialDepth int
	// Order is the move-ordering policy for the underlying searches; nil
	// means natural order.
	Order game.Orderer
	// Sharded runs every search on the per-worker sharded work-stealing
	// problem heap instead of the global two-queue heap. Same values,
	// less pop-path lock contention at high worker counts.
	Sharded bool
	// ProfileLabels runs every core task under runtime/pprof goroutine
	// labels (task_kind, spec) so CPU/mutex profiles taken from the serving
	// process segment by the search's work taxonomy.
	ProfileLabels bool
	// TableBits sizes the shared transposition table at 2^TableBits slots.
	// Zero disables the table. All sessions of this engine share it, both
	// concurrently and across iterations. Probes match equal depth only, so
	// every reported value is the exact depth-d value.
	TableBits int
	// TableImpl names the shared-table implementation: empty or "lockfree"
	// (tt.ImplLockFree, atomic cache-line buckets with XOR key validation
	// and aging replacement), the only one. Any other name panics in New.
	TableImpl string
	// Delta is the aspiration half-window around the previous iteration's
	// value. Zero searches every iteration with a full window.
	Delta game.Value
	// MaxConcurrent bounds the number of sessions analyzed at once;
	// further requests wait up to QueueTimeout for a slot. Defaults to 1.
	// Ignored when Pool is set.
	MaxConcurrent int
	// QueueTimeout is how long an over-capacity request may wait for a
	// session slot before ErrBusy. Zero rejects immediately when full.
	QueueTimeout time.Duration
	// Pool, if non-nil, is a session-slot pool shared with other engines:
	// all of them together run at most cap(Pool) concurrent sessions. A
	// multi-game server uses one Pool across its per-game engines.
	Pool Pool
	// Telemetry, if non-nil, receives per-session metric samples (outcome
	// counts, latency and depth histograms, core task/TT traffic) labeled
	// with Name. Engines sharing a registry share one Telemetry. Nil
	// disables recording; the engine's own Counters always run.
	Telemetry *Telemetry
	// Obs, if non-nil, is the self-monitor watching this engine: sessions
	// register stall-watchdog heartbeats with it (start, per-iteration
	// progress, end); its sampler reads the engine through AddSample. Nil
	// (the default) costs one pointer test per session and nothing else.
	Obs *obs.Monitor
}

// Pool is a shared set of session slots (a counting semaphore). Engines
// created with the same Pool contend for the same slots.
type Pool chan struct{}

// NewPool creates a pool of n session slots (minimum 1).
func NewPool(n int) Pool {
	if n < 1 {
		n = 1
	}
	return make(Pool, n)
}

// Engine is a long-lived analysis engine for one game. Sessions admitted
// through Analyze share the engine's transposition table and its bounded
// pool of session slots. All methods are safe for concurrent use.
type Engine struct {
	cfg   Config
	table tt.SharedTable
	sem   chan struct{}
	// backends holds one instance of every registered backend, built against
	// this engine's table and scheduler knobs at New, so per-session backend
	// switches (?backend=) are map lookups, not constructions. drivers is
	// the same arrangement for the root drivers (?driver=).
	backends map[string]backend.Backend
	drivers  map[string]driver.Driver

	// waiting is the admission queue depth, a level rather than a count, so
	// exposition-time gauges read it with one atomic load.
	waiting atomic.Int64

	// mu guards the engine's counters: counts, and the admitted sessions
	// per backend and driver name (the Stats attribution of mixed traffic).
	// Every write is once per admission, refusal, iteration or session end,
	// never per node.
	mu              sync.Mutex
	counts          Counters
	backendSessions map[string]int64
	driverSessions  map[string]int64
}

// Counters are an engine's cumulative counts since New: session outcomes,
// admission refusals by cause, root-driver work, and the work totals the
// search backends report, folded in once per session. Stats and AddSample
// read them; the engine's /metrics families record the same per-session
// totals as they are folded in.
type Counters struct {
	Started     int64 // sessions admitted
	Completed   int64 // sessions that reached their full requested depth
	DeadlineCut int64 // sessions cut short by their deadline
	Rejected    int64 // admissions refused (queue timeout or caller gave up)
	Failed      int64 // sessions that errored

	// Rejected broken down by cause: "full" (immediate, no queue configured),
	// "timeout" (queue wait expired), "cancelled" (caller gave up queued).
	ShedFull      int64
	ShedTimeout   int64
	ShedCancelled int64

	Researches int64 // wide-window re-searches across all sessions
	Probes     int64 // root-driver null-window probes across all sessions
	Iterations int64 // completed deepening iterations across all sessions

	// Totals is the search work of every session: nodes, core tasks, heap
	// traffic, and every transposition probe, hit and store, each counted
	// once by the code that issued it (the backends' searches, and the
	// sessions' root-ordering probes).
	backend.Totals
}

// name returns the engine's telemetry label.
func (e *Engine) name() string {
	if e.cfg.Name != "" {
		return e.cfg.Name
	}
	return "default"
}

// New creates an engine. The zero Config is usable: one worker, one
// concurrent session, no transposition table, full-window iterations, the
// default (er) backend. An unknown Config.Backend panics — it is a wiring
// bug, not user input; servers validate request parameters with
// backend.Valid before they get here.
func New(cfg Config) *Engine {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = 1
	}
	if cfg.Backend == "" {
		cfg.Backend = os.Getenv(EnvBackend)
	}
	if cfg.Backend == "" {
		cfg.Backend = DefaultBackend
	}
	if !backend.Valid(cfg.Backend) {
		panic(fmt.Sprintf("engine: unknown backend %q (registered: %s)",
			cfg.Backend, backend.NamesString()))
	}
	if cfg.Driver == "" {
		cfg.Driver = os.Getenv(EnvDriver)
	}
	if cfg.Driver == "" {
		cfg.Driver = DefaultDriver
	}
	if !driver.Valid(cfg.Driver) {
		panic(fmt.Sprintf("engine: unknown driver %q (registered: %s)",
			cfg.Driver, driver.NamesString()))
	}
	e := &Engine{
		cfg:             cfg,
		sem:             cfg.Pool,
		backendSessions: make(map[string]int64),
		driverSessions:  make(map[string]int64),
	}
	if e.sem == nil {
		e.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	if cfg.TableBits > 0 {
		table, err := tt.NewSharedTable(cfg.TableImpl, cfg.TableBits)
		if err != nil {
			panic(fmt.Sprintf("engine: %v", err))
		}
		e.table = table
	}
	bcfg := backend.Config{
		Workers:     cfg.Workers,
		SerialDepth: cfg.SerialDepth,
		Order:       cfg.Order,
		Table:       e.table,
		// The engine has always run ER with the full speculation protocol on.
		ParallelRefutation: true,
		MultipleENodes:     true,
		EarlyChoice:        true,
		Sharded:            cfg.Sharded,
		ProfileLabels:      cfg.ProfileLabels,
	}
	e.backends = make(map[string]backend.Backend)
	for _, name := range backend.Names() {
		be, err := backend.New(name, bcfg)
		if err != nil {
			panic(err) // unreachable: the name came from the registry
		}
		e.backends[name] = be
	}
	// One instance of every registered driver, so per-session driver
	// switches (?driver=) are map lookups too. Drivers share the engine's
	// aspiration half-window.
	dcfg := driver.Config{Delta: cfg.Delta}
	e.drivers = make(map[string]driver.Driver)
	for _, name := range driver.Names() {
		d, err := driver.New(name, dcfg)
		if err != nil {
			panic(err) // unreachable: the name came from the registry
		}
		e.drivers[name] = d
	}
	return e
}

// Backend returns the engine's default backend name.
func (e *Engine) Backend() string { return e.cfg.Backend }

// Driver returns the engine's default root-driver name.
func (e *Engine) Driver() string { return e.cfg.Driver }

// driverFor resolves a per-session driver override ("" means the engine
// default) to the prebuilt instance.
func (e *Engine) driverFor(name string) (driver.Driver, error) {
	if name == "" {
		name = e.cfg.Driver
	}
	d, ok := e.drivers[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q (registered: %s)",
			ErrUnknownDriver, name, driver.NamesString())
	}
	return d, nil
}

// backendFor resolves a per-session backend override ("" means the engine
// default) to the prebuilt instance.
func (e *Engine) backendFor(name string) (backend.Backend, error) {
	if name == "" {
		name = e.cfg.Backend
	}
	be, ok := e.backends[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q (registered: %s)",
			ErrUnknownBackend, name, backend.NamesString())
	}
	return be, nil
}

// admit counts one admitted session and attributes it to the backend and
// driver serving it.
func (e *Engine) admit(backendName, driverName string) {
	e.mu.Lock()
	e.counts.Started++
	e.backendSessions[backendName]++
	e.driverSessions[driverName]++
	e.mu.Unlock()
}

// Shed-cause labels: why an admission was refused. "full" is an immediate
// rejection (no queue configured), "timeout" a queue wait that expired, and
// "cancelled" a caller that gave up while queued.
const (
	ShedFull      = "full"
	ShedTimeout   = "timeout"
	ShedCancelled = "cancelled"
)

// acquire claims a session slot, waiting up to QueueTimeout when the pool is
// full. ctx expiry during the wait is reported as the context's error. Every
// outcome records how long the caller waited (the admission-wait histogram —
// under load, queueing is where serving latency hides), and refusals count by
// cause.
func (e *Engine) acquire(ctx context.Context) error {
	start := time.Now()
	select {
	case e.sem <- struct{}{}:
		e.cfg.Telemetry.recordAdmissionWait(e.name(), time.Since(start))
		return nil
	default:
	}
	if e.cfg.QueueTimeout <= 0 {
		return e.shed(ShedFull, start, ErrBusy)
	}
	e.waiting.Add(1)
	defer e.waiting.Add(-1)
	timer := time.NewTimer(e.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case e.sem <- struct{}{}:
		e.cfg.Telemetry.recordAdmissionWait(e.name(), time.Since(start))
		return nil
	case <-timer.C:
		return e.shed(ShedTimeout, start, ErrBusy)
	case <-ctx.Done():
		return e.shed(ShedCancelled, start, ctx.Err())
	}
}

// shed counts one admission refused for cause after waiting since start, and
// returns err.
func (e *Engine) shed(cause string, start time.Time, err error) error {
	e.mu.Lock()
	e.counts.Rejected++
	switch cause {
	case ShedFull:
		e.counts.ShedFull++
	case ShedTimeout:
		e.counts.ShedTimeout++
	default:
		e.counts.ShedCancelled++
	}
	e.mu.Unlock()
	e.cfg.Telemetry.recordAdmissionWait(e.name(), time.Since(start))
	e.cfg.Telemetry.recordShed(e.name(), cause)
	return err
}

func (e *Engine) release() { <-e.sem }

// Stats is a point-in-time snapshot of an engine's counters, slot pool and
// table.
type Stats struct {
	Capacity int   // session slots
	Active   int   // sessions currently running
	Waiting  int64 // requests queued for a slot

	Counters

	// Backend is the engine's default search backend; BackendSessions counts
	// admitted sessions per backend actually used (per-request overrides make
	// mixed-backend traffic, and this is how it stays attributable). Driver
	// and DriverSessions are the same pair for the root drivers.
	Backend         string
	BackendSessions map[string]int64
	Driver          string
	DriverSessions  map[string]int64

	// TableHitRate is TTHits/TTProbes: the hit rate of every probe the
	// engine's sessions sent to the table.
	HasTable     bool
	TableHitRate float64
	TableFill    int
	TableLen     int
	// TableImpl names the table implementation ("lockfree");
	// TableGeneration is its current aging generation (bumped once per
	// admitted session, wraps at 256).
	TableImpl       string
	TableGeneration uint8
}

// Stats returns the engine's current counters. Each session folds its work
// in when it ends, so the snapshot trails sessions still running.
func (e *Engine) Stats() Stats {
	s := Stats{
		Capacity: cap(e.sem),
		Active:   len(e.sem),
		Waiting:  e.waiting.Load(),
		Backend:  e.cfg.Backend,
		Driver:   e.cfg.Driver,
	}
	e.mu.Lock()
	s.Counters = e.counts
	if len(e.backendSessions) > 0 {
		s.BackendSessions = maps.Clone(e.backendSessions)
	}
	if len(e.driverSessions) > 0 {
		s.DriverSessions = maps.Clone(e.driverSessions)
	}
	e.mu.Unlock()
	if e.table != nil {
		s.HasTable = true
		s.TableHitRate = hitRate(s.TTHits, s.TTProbes)
		s.TableFill = e.table.Fill()
		s.TableLen = e.table.Len()
		s.TableImpl = tt.ImplLockFree
		s.TableGeneration = e.table.Generation()
	}
	return s
}

// hitRate returns hits over probes, 0 before the first probe.
func hitRate(hits, probes int64) float64 {
	if probes == 0 {
		return 0
	}
	return float64(hits) / float64(probes)
}

// Table exposes the engine's shared transposition table (nil when disabled);
// tests use it to assert cross-session reuse.
func (e *Engine) Table() tt.SharedTable { return e.table }

// Waiting returns the number of requests currently queued for a session slot
// — the admission queue depth. Cheaper than Stats() (one atomic load), so
// exposition-time gauges and load-test samplers can poll it freely.
func (e *Engine) Waiting() int64 { return e.waiting.Load() }

// AddSample adds the engine's reading into sm: its cumulative counters, its
// admission queue and its table's occupancy and generation. InFlight is set,
// not added, to the occupancy of the engine's slot pool, because engines
// sharing a Pool read the same pool. AddSample takes the counter lock once
// and allocates nothing, so a background sampler can call it at any rate.
func (e *Engine) AddSample(sm *obs.Sample) {
	sm.InFlight = int64(len(e.sem))
	sm.Waiting += e.waiting.Load()
	e.mu.Lock()
	c := &e.counts
	sm.Sessions += c.Started
	sm.Iterations += c.Iterations
	sm.Probes += c.Probes
	sm.ShedFull += c.ShedFull
	sm.ShedTimeout += c.ShedTimeout
	sm.ShedCancelled += c.ShedCancelled
	sm.Steals += c.Steals
	sm.StealFails += c.StealFails
	sm.TTProbes += c.TTProbes
	sm.TTHits += c.TTHits
	e.mu.Unlock()
	if e.table != nil {
		sm.TTFill += int64(e.table.Fill())
		sm.TTLen += int64(e.table.Len())
		sm.TTGenerations += int64(e.table.Generation())
	}
}

// Package backend defines the SearchBackend seam: one fixed-depth,
// fail-soft, cancellable search of a position, behind a small interface so
// drivers (the iterative-deepening engine, the CLI, the benchmarks) can swap
// the search scheduler without knowing how the tree is walked.
//
// Three backends register here or in sibling packages:
//
//   - "er":      the paper's parallel ER scheduler (internal/core), one
//     search per request with the root expanded — the scheme this
//     repository reproduces.
//   - "serial":  single-threaded scout/PVS over the shared transposition
//     table (serial.PVSRoot, on serial ER's allocation-free child path) —
//     the one-processor reference every parallel curve is divided by.
//   - "lazysmp": independent iterative-deepening workers, each deepening
//     with the serial backend and sharing only the transposition table
//     (internal/lazysmp) — the Crafty/Lazy-SMP lineage the paper never got
//     to compare against.
//
// The contract every backend honors: Search(Request) returns the fail-soft
// value of Request.Pos at exactly Request.Depth under Request.Window (a
// value inside the window is the exact depth-limited negamax value, a value
// at or below Alpha is an upper bound, at or above Beta a lower bound), the
// root child index proving that value, and the node/TT/scheduler totals of
// the work performed. Cancellation via Request.Cancel aborts promptly with
// ErrAborted and partial totals.
package backend

import (
	"fmt"
	"sort"
	"sync"

	"ertree/internal/core"
	"ertree/internal/game"
	"ertree/internal/tt"
)

// ErrAborted reports a search cancelled before the root resolved. It is
// core.ErrAborted, so drivers handle every backend's cancellation alike.
var ErrAborted = core.ErrAborted

// Config fixes a backend's long-lived policy: worker count, move ordering,
// the shared transposition table, and the scheduler knobs of the parallel
// backends. Per-search inputs (position, depth, window, cancellation) travel
// in the Request instead, so one backend value serves concurrent searches.
type Config struct {
	// Workers is the parallelism available to the backend. The serial
	// backend ignores it; er runs Workers pop-loop goroutines; lazysmp runs
	// Workers independent deepening searchers.
	Workers int
	// SerialDepth is the remaining depth at or below which the er backend
	// searches subtrees serially (the ER work grain). Serial and lazysmp
	// search serially everywhere and ignore it.
	SerialDepth int
	// Order is the move-ordering policy; nil means natural order.
	Order game.Orderer
	// Table is the shared transposition table, or nil to search without
	// memory. All backends probe and store under the one keying (tt.Key),
	// so a table warmed by one backend answers the others. New normalizes a
	// typed-nil table to a nil interface.
	Table tt.SharedTable

	// ER scheduler knobs (er backend only).
	ParallelRefutation bool // refute an e-node's children concurrently
	MultipleENodes     bool // keep offering additional e-children
	EarlyChoice        bool // pick an e-child before the last elder grandchild finishes
	SpecRank           core.SpecRank
	EagerSpec          bool
	ProfileLabels      bool // run tasks under runtime/pprof labels
}

// Request is one search: a position to exactly Depth plies under a fail-soft
// Window, cancellable through Cancel.
type Request struct {
	Pos   game.Position
	Depth int
	// Window restricts the search. Use game.FullWindow() for the exact
	// value.
	Window game.Window
	// RootOrder, when non-nil, is the preferred order to try the root's
	// children in (indices into Pos.Children(), best candidate first).
	// Deepening drivers pass last iteration's ordering; backends may deviate
	// (lazysmp skews it per worker) but must still return a proving move.
	RootOrder []int
	// Cancel, when non-nil, aborts the search at the next cancellation
	// check; Search returns ErrAborted with the totals accumulated so far.
	Cancel <-chan struct{}
	// Hooks arms the er backend's per-worker core telemetry (spans, flight
	// recorder events). The serial and lazysmp backends do not run core
	// workers and ignore it; see DESIGN.md "Backends" for which telemetry
	// each backend populates.
	Hooks *core.Hooks
}

// Totals are the work counters a search accumulated, in the same taxonomy
// the engine and /metrics already aggregate. Backends leave fields they have
// no concept of at zero (serial/lazysmp never touch the problem heap, so
// SerialTasks, SpecPops, HeapOps stay zero there).
type Totals struct {
	Nodes int64 // tree nodes generated

	SerialTasks int64 // ER serial-subtree work units
	LeafTasks   int64 // frontier/terminal static evaluations
	SpecPops    int64 // speculative-queue pops
	Dropped     int64 // dead nodes discarded at pop time
	CutoffDrops int64 // nodes cut off at pop time
	HeapOps     int64 // problem-heap pushes + pops

	TTProbes  int64
	TTHits    int64
	TTStores  int64
	TTCutoffs int64 // searches answered by the table without searching
}

// Add folds o into t.
func (t *Totals) Add(o Totals) {
	t.Nodes += o.Nodes
	t.SerialTasks += o.SerialTasks
	t.LeafTasks += o.LeafTasks
	t.SpecPops += o.SpecPops
	t.Dropped += o.Dropped
	t.CutoffDrops += o.CutoffDrops
	t.HeapOps += o.HeapOps
	t.TTProbes += o.TTProbes
	t.TTHits += o.TTHits
	t.TTStores += o.TTStores
	t.TTCutoffs += o.TTCutoffs
}

// addTT folds a searcher's table traffic into t.
func (t *Totals) addTT(c tt.Counts) {
	t.TTProbes += c.Probes
	t.TTHits += c.Hits
	t.TTStores += c.Stores
	t.TTCutoffs += c.Cutoffs
}

// AddResult folds a core search result's counters into t.
func (t *Totals) AddResult(res core.Result) {
	t.Nodes += res.Stats.Generated
	t.SerialTasks += res.SerialTasks
	t.LeafTasks += res.LeafTasks
	t.SpecPops += res.SpecPops
	t.Dropped += res.Dropped
	t.CutoffDrops += res.CutoffDrops
	t.HeapOps += res.HeapOps
	t.TTProbes += res.TTProbes
	t.TTHits += res.TTHits
	t.TTStores += res.TTStores
	t.TTCutoffs += res.TTCutoffs
}

// Response reports one backend search.
type Response struct {
	// Value is the fail-soft result: exact inside the request window, an
	// upper bound at or below Alpha, a lower bound at or above Beta.
	Value game.Value
	// Move is the root child index (natural move order) proving Value, or
	// -1 when the position was terminal or searched at depth 0.
	Move int
	// Exact reports that Value lies strictly inside the request window.
	Exact bool
	// Scores holds the latest root-view score per child in natural order
	// (fail-soft bounds for refuted moves, game.NoValue for children the
	// search never visited). Deepening drivers use it to order the next
	// iteration. Nil when the backend has nothing useful to report.
	Scores []game.Value
	// Totals are the accumulated work counters, summed across every worker
	// the backend ran (for lazysmp that is total work, not critical path).
	Totals Totals
	// Workers is the parallelism actually used.
	Workers int
}

// Backend is one search scheduler behind the seam.
type Backend interface {
	// Name returns the backend's registered name.
	Name() string
	// Search runs one fixed-depth search. Safe for concurrent use.
	Search(req Request) (Response, error)
}

// Factory builds a backend from a config.
type Factory func(Config) Backend

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register makes a backend constructible by name. Duplicate registration
// panics, by design (same discipline as telemetry families): two packages
// claiming one name is a wiring bug.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("backend: %q registered twice", name))
	}
	registry[name] = f
}

// New builds the named backend, or an error naming the registered set so
// callers can surface a helpful message (erserve's 400, ertree's usage
// error).
func New(name string, cfg Config) (Backend, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("backend: unknown backend %q (registered: %s)", name, NamesString())
	}
	// Normalize a typed-nil table (a nil *tt.LockFree stored in the interface
	// field) to a plain nil interface, so backends can test cfg.Table == nil.
	if tt.IsNil(cfg.Table) {
		cfg.Table = nil
	}
	return f(cfg), nil
}

// Valid reports whether name is a registered backend.
func Valid(name string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := registry[name]
	return ok
}

// Names returns the registered backend names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NamesString returns the registered names joined for error messages.
func NamesString() string {
	s := ""
	for i, n := range Names() {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}

// LeafResponse answers a request whose position is terminal or searched at
// depth zero: the static value, no move.
func LeafResponse(req Request) Response {
	v := req.Pos.Value()
	return Response{
		Value:   v,
		Move:    -1,
		Exact:   req.Window.Contains(v),
		Totals:  Totals{Nodes: 1, LeafTasks: 1},
		Workers: 1,
	}
}

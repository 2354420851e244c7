// Package backend defines the SearchBackend seam: one fixed-depth,
// fail-soft, cancellable search of a position, behind a small interface so
// drivers (the iterative-deepening engine, the CLI, the benchmarks) can swap
// the search scheduler without knowing how the tree is walked.
//
// Three backends register here or in sibling packages:
//
//   - "er":      the paper's parallel ER scheduler (internal/core) driven
//     move-by-move at the root with fail-soft alpha raising — the scheme
//     this repository reproduces.
//   - "serial":  single-threaded scout/PVS over the shared transposition
//     table — the one-processor reference every parallel curve is divided
//     by.
//   - "lazysmp": independent iterative-deepening workers sharing only the
//     transposition table (internal/lazysmp) — the Crafty/Lazy-SMP lineage
//     the paper never got to compare against.
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
	// memory. All backends probe and store through the same keying policy,
	// so a table warmed by one backend answers the others. New normalizes a
	// typed-nil table to a nil interface.
	Table tt.SharedTable

	// ER scheduler knobs (er backend only).
	ParallelRefutation bool // refute an e-node's children concurrently
	MultipleENodes     bool // keep offering additional e-children
	EarlyChoice        bool // pick an e-child before the last elder grandchild finishes
	SpecRank           core.SpecRank
	EagerSpec          bool
	Sharded            bool   // per-worker work-stealing problem heap
	StealSeed          uint64 // victim-rotation seed of the sharded heap
	ProfileLabels      bool   // run tasks under runtime/pprof labels
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
// SerialTasks, SpecPops, HeapOps, Steals stay zero there).
type Totals struct {
	Nodes int64 // tree nodes generated

	SerialTasks int64 // ER serial-subtree work units
	LeafTasks   int64 // frontier/terminal static evaluations
	SpecPops    int64 // speculative-queue pops
	Dropped     int64 // dead nodes discarded at pop time
	CutoffDrops int64 // nodes cut off at pop time
	HeapOps     int64 // problem-heap pushes + pops
	Steals      int64 // sharded-heap steals
	StealFails  int64 // steal sweeps that found nothing

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
	t.Steals += o.Steals
	t.StealFails += o.StealFails
	t.TTProbes += o.TTProbes
	t.TTHits += o.TTHits
	t.TTStores += o.TTStores
	t.TTCutoffs += o.TTCutoffs
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
	t.Steals += res.Steals
	t.StealFails += res.StealFails
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

// ChildSearcher evaluates one root child to the given remaining depth under
// a fail-soft window (from the child's own point of view).
type ChildSearcher func(child game.Position, depth int, w game.Window) (game.Value, error)

// RootResult is the outcome of one fail-soft root loop.
type RootResult struct {
	// Value is the fail-soft root value, Move the natural child index proving
	// it (-1 if no child was searched).
	Value game.Value
	Move  int
	// Scores holds the root-view score per child in natural order;
	// game.NoValue marks children the loop never reached.
	Scores []game.Value
}

// RootScout drives the fail-soft root loop shared by every backend: children
// are tried in the given order under a running lower bound of the best score
// so far, so refuted moves cut quickly on a null-ish window while the best
// move's score stays exact within the request window. This is the loop the
// engine's sessions ran before the backend seam existed; keeping one copy
// here keeps the backends' root semantics identical (internal/lazysmp's
// deepening workers call it once per iteration).
func RootScout(kids []game.Position, depth int, w game.Window, order []int, search ChildSearcher) (RootResult, error) {
	r := RootResult{Move: -1, Value: -game.Inf, Scores: make([]game.Value, len(kids))}
	for i := range r.Scores {
		r.Scores[i] = game.NoValue
	}
	if order == nil {
		order = make([]int, len(kids))
		for i := range order {
			order[i] = i
		}
	}
	for _, idx := range order {
		a := w.Alpha
		if r.Value > a {
			a = r.Value
		}
		if a >= w.Beta {
			break // the window is closed: the search fails high
		}
		cw := game.Window{Alpha: -w.Beta, Beta: -a}
		v, err := search(kids[idx], depth-1, cw)
		if err != nil {
			return r, err
		}
		nv := -v
		r.Scores[idx] = nv
		if nv > r.Value || r.Move < 0 {
			r.Value, r.Move = nv, idx
		}
	}
	return r, nil
}

// ttPolicy is the transposition keying and traffic counting every backend
// shares — the er backend applies it to each root child before a core
// search, TTScout to every node it searches — so a table warmed by one
// backend (or an earlier deepening iteration) answers the others. The key is
// salted with the depth and probes match equal depth, keeping one entry per
// (position, depth) so iterative deepening's per-depth results coexist and
// every cached bound is a sound depth-d bound.
type ttPolicy struct {
	table tt.SharedTable
}

// depthSalt decorrelates per-depth entries.
const depthSalt = 0x9E3779B97F4A7C15

// probeChild probes the table for child at depth, narrowing w in place when
// the cached bound is useful. It reports (answer, true, ...) when the entry
// resolves the search outright, and always returns the store key and whether
// the position is hashable at all.
func (p ttPolicy) probeChild(child game.Position, depth int, w *game.Window, tot *Totals) (game.Value, bool, uint64, bool) {
	if tt.IsNil(p.table) {
		return 0, false, 0, false
	}
	h, ok := child.(tt.Hashable)
	if !ok {
		return 0, false, 0, false
	}
	key := h.Hash() ^ uint64(depth)*depthSalt
	tot.TTProbes++
	en, ok := p.table.Probe(key, depth)
	if !ok {
		return 0, false, key, true
	}
	tot.TTHits++
	switch en.Bound {
	case tt.Exact:
		tot.TTCutoffs++
		return en.Value, true, key, true
	case tt.Lower:
		if en.Value >= w.Beta {
			tot.TTCutoffs++
			return en.Value, true, key, true
		}
		if en.Value > w.Alpha {
			w.Alpha = en.Value
		}
	case tt.Upper:
		if en.Value <= w.Alpha {
			tot.TTCutoffs++
			return en.Value, true, key, true
		}
		if en.Value < w.Beta {
			w.Beta = en.Value
		}
	}
	return 0, false, key, true
}

// storeChild records a fail-soft result classified against the window it was
// searched under.
func (p ttPolicy) storeChild(key uint64, depth int, v game.Value, w game.Window, tot *Totals) {
	tot.TTStores++
	switch {
	case v <= w.Alpha:
		p.table.Store(key, depth, v, tt.Upper)
	case v >= w.Beta:
		p.table.Store(key, depth, v, tt.Lower)
	default:
		p.table.Store(key, depth, v, tt.Exact)
	}
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

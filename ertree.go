package ertree

import (
	"context"

	"ertree/internal/core"
	"ertree/internal/game"
	"ertree/internal/serial"
	"ertree/internal/tt"
)

// Errors returned by Search, SearchContext and Simulate.
var (
	// ErrAborted reports a search cancelled before the root resolved; the
	// partial Result still carries statistics.
	ErrAborted = core.ErrAborted
	// ErrUnresolved reports a search that terminated without resolving the
	// root, an internal invariant violation.
	ErrUnresolved = core.ErrUnresolved
)

// Position is a game state from the point of view of the player to move.
// Implement it to search your own game; Othello, TicTacToe and the random
// trees in this package already do.
type Position = game.Position

// Expander is the optional interface a Position implements so serial ER
// generates its children without allocating: AppendChildren writes them,
// in Children's order, as pointers to boards taken from the searcher's Slab
// with Alloc. Such a child is valid only while the search holds it; see
// game.Expander for the rule. Positions without it are expanded through
// Children.
type Expander = game.Expander

// Slab is the searcher-owned storage an Expander writes child boards into.
type Slab = game.Slab

// Alloc returns storage for k boards of type T from s, for an Expander to
// fill.
func Alloc[T any](s *Slab, k int) []T { return game.Alloc[T](s, k) }

// Value is a position score in the negamax convention: always from the
// point of view of the player to move, bounded by (-Inf, Inf).
type Value = game.Value

// Inf bounds every legal score's magnitude.
const Inf = game.Inf

// Window is an alpha-beta window.
type Window = game.Window

// FullWindow returns the unrestricted window (-Inf, Inf).
func FullWindow() Window { return game.FullWindow() }

// Orderer is a move-ordering policy.
type Orderer = game.Orderer

// NaturalOrder searches children in the game's natural move order.
type NaturalOrder = game.NaturalOrder

// StaticOrder sorts children by static evaluation down to a ply limit, the
// ordering used by the paper's Othello experiments.
type StaticOrder = game.StaticOrder

// Stats accumulates node accounting for a search.
type Stats = game.Stats

// StatsSnapshot is an immutable copy of Stats.
type StatsSnapshot = game.StatsSnapshot

// Negmax computes the exact value of pos searched to the given depth by
// visiting every node (paper §2). It is the reference oracle.
func Negmax(pos Position, depth int) Value {
	var s serial.Searcher
	return s.Negmax(pos, depth)
}

// AlphaBeta computes the exact value of pos using serial fail-soft
// alpha-beta with deep cutoffs (paper §2.1).
func AlphaBeta(pos Position, depth int) Value {
	var s serial.Searcher
	return s.AlphaBeta(pos, depth, game.FullWindow())
}

// SerialER computes the exact value of pos using the serial ER algorithm of
// the paper's Figure 8.
func SerialER(pos Position, depth int) Value {
	var s serial.Searcher
	return s.ER(pos, depth, game.FullWindow())
}

// Serial exposes the serial algorithms with full control over windows, move
// ordering and statistics.
type Serial = serial.Searcher

// PVS computes the exact value of pos using serial principal-variation
// search (minimal-window verification of non-first children), the technique
// behind the pv-splitting variant of the paper's footnote 3.
func PVS(pos Position, depth int) Value {
	var s serial.Searcher
	return s.PVS(pos, depth, game.FullWindow())
}

// TranspositionTable caches search results across transpositions for
// positions that implement Hashable (Othello, Connect Four, tic-tac-toe and
// the random trees all do). Use it with Serial.AlphaBetaTT.
type TranspositionTable = tt.Table

// Hashable is the capability a Position implements to enable transposition
// tables.
type Hashable = tt.Hashable

// NewTranspositionTable creates a table with 2^bits slots.
func NewTranspositionTable(bits int) *TranspositionTable { return tt.New(bits) }

// SearchTable is the concurrent transposition table every search accepts:
// attach one via Config.Table and the serial subtree tasks probe it before
// searching and store their fail-soft bounds after, so concurrent workers —
// and successive searches sharing the table — reuse each other's subtree
// work. Exactness is preserved (probes match exact depth). It is the
// lock-free table: atomic cache-line buckets with aging replacement.
type SearchTable = tt.SharedTable

// TableLockFree names the shared-table implementation, the only one.
const TableLockFree = tt.ImplLockFree

// NewSearchTable creates a shared table with 2^bits slots. impl must be ""
// or TableLockFree; any other name returns an error naming the valid one.
// shards is ignored: the lock-free table has no locks to stripe.
func NewSearchTable(impl string, bits, shards int) (SearchTable, error) {
	return tt.NewSharedTable(impl, bits)
}

// Config configures a parallel ER search.
type Config struct {
	// Workers is the number of processors. Defaults to 1.
	Workers int
	// SerialDepth is the remaining depth at or below which e-node subtrees
	// are searched by one serial ER call (the work grain). Zero
	// parallelizes to the leaves.
	SerialDepth int
	// Order is the move-ordering policy for non-e-node expansions; nil
	// means natural order.
	Order Orderer
	// DisableParallelRefutation, DisableMultipleENodes and
	// DisableEarlyChoice turn off the three speculative-work mechanisms of
	// §5 (all are on by default, the paper's configuration).
	DisableParallelRefutation bool
	DisableMultipleENodes     bool
	DisableEarlyChoice        bool
	// SpecRank selects the speculative-queue ordering: SpecRankPaper
	// (default, fewest e-children then shallowest), SpecRankDepth, or
	// SpecRankBound (global ranking by most optimistic candidate bound).
	SpecRank SpecRank
	// Trace records per-processor busy intervals during Simulate (see
	// Result.Timeline).
	Trace bool
	// EagerSpec admits nodes to the speculative queue after their first
	// elder grandchild instead of the paper's all-but-one rule. Helps on
	// uninformed trees, hurts on strongly ordered games (experiment A6).
	EagerSpec bool
	// Sharded replaces Search's global problem heap with per-worker shards
	// plus rank-respecting work stealing, removing the shared-heap lock from
	// the pop path. Identical results, different schedule; see core.Options.
	// Ignored by Simulate, which models the paper's single shared heap.
	Sharded bool
	// StealSeed seeds the per-worker victim-rotation RNG of the sharded
	// heap; distinct seeds decorrelate steal patterns across repeated
	// searches. Zero is a valid seed.
	StealSeed uint64
	// RootWindow, if non-nil, narrows the root search window. The search is
	// fail-soft: a value inside the window is exact, a value at or below
	// Alpha is an upper bound, a value at or above Beta is a lower bound.
	// Nil searches the full window and always returns the exact value.
	RootWindow *Window
	// Stats, if non-nil, receives node accounting.
	Stats *Stats
	// Table, if non-nil, backs the serial subtree tasks of Search with a
	// concurrent transposition table (see NewSearchTable). Ignored by
	// Simulate, whose model of the paper's machine has no table.
	Table SearchTable
	// Hooks, if non-nil, arms per-worker telemetry on Search: busy spans by
	// task kind, the speculative-vs-primary work split, heap samples, and —
	// with Hooks.Events set — the bounded flight-recorder event log,
	// delivered per worker at exit. Nil costs one pointer test per task.
	// Ignored by Simulate, which records Timeline via Trace instead.
	Hooks *SearchHooks
	// ProfileLabels runs every Search task under runtime/pprof goroutine
	// labels (task_kind, spec), so CPU and mutex profiles segment by the
	// search's work taxonomy. Ignored by Simulate.
	ProfileLabels bool
}

// SearchHooks configures real-runtime search telemetry; see core.Hooks.
type SearchHooks = core.Hooks

// WorkerTelemetry is one worker's accumulated telemetry shard, delivered via
// SearchHooks.OnWorkerDone.
type WorkerTelemetry = core.WorkerTelemetry

// TaskKind classifies the work units reported in WorkerTelemetry.
type TaskKind = core.TaskKind

// Task kinds reported by search telemetry (see core.TaskKind).
const (
	TaskLeaf    = core.TaskLeaf
	TaskSerial  = core.TaskSerial
	TaskExamine = core.TaskExamine
	TaskExpand  = core.TaskExpand
	TaskSpec    = core.TaskSpec
	TaskCutoff  = core.TaskCutoff
	TaskDrop    = core.TaskDrop
)

// SpecRank is a speculative-queue ordering policy.
type SpecRank = core.SpecRank

// Speculative-queue ordering policies (see core.SpecRank).
const (
	SpecRankPaper = core.SpecRankPaper
	SpecRankDepth = core.SpecRankDepth
	SpecRankBound = core.SpecRankBound
)

func (c Config) options() core.Options {
	opt := core.Options{
		Workers:            c.Workers,
		SerialDepth:        c.SerialDepth,
		Order:              c.Order,
		ParallelRefutation: !c.DisableParallelRefutation,
		MultipleENodes:     !c.DisableMultipleENodes,
		EarlyChoice:        !c.DisableEarlyChoice,
		SpecRank:           c.SpecRank,
		EagerSpec:          c.EagerSpec,
		Sharded:            c.Sharded,
		StealSeed:          c.StealSeed,
		RootWindow:         c.RootWindow,
		Trace:              c.Trace,
		Stats:              c.Stats,
		Hooks:              c.Hooks,
		ProfileLabels:      c.ProfileLabels,
	}
	if !tt.IsNil(c.Table) {
		// Assign only when non-nil: a typed-nil table wrapped in the Prober
		// interface would read as attached.
		opt.Table = c.Table
	}
	return opt
}

// Result reports the outcome of a parallel ER search; see core.Result for
// field documentation.
type Result = core.Result

// CostModel maps engine operations to virtual time for Simulate.
type CostModel = core.CostModel

// DefaultCostModel returns the cost model used by the experiment harness.
func DefaultCostModel() CostModel { return core.DefaultCostModel() }

// Search runs parallel ER on real goroutines and returns the root value —
// exact, or a fail-soft bound when Config.RootWindow excludes it. Correct for
// any worker count; prefer Simulate for speedup measurement on machines with
// few cores. The error is always nil today unless a RootWindow search trips
// an internal invariant; it exists so cancellable variants share the
// signature.
func Search(pos Position, depth int, cfg Config) (Result, error) {
	return core.Search(pos, depth, cfg.options())
}

// SearchContext is Search under a context: when ctx is cancelled or its
// deadline expires, the workers stop cooperatively and SearchContext returns
// the partial Result with ErrAborted. Callers wanting a best-so-far answer
// under time control should prefer the engine package, which wraps this in
// iterative deepening.
func SearchContext(ctx context.Context, pos Position, depth int, cfg Config) (Result, error) {
	opt := cfg.options()
	opt.Cancel = ctx.Done()
	return core.Search(pos, depth, opt)
}

// Simulate runs parallel ER on P virtual processors of the deterministic
// discrete-event simulator under the given cost model, reporting virtual
// makespan and the starvation/interference loss decomposition of §3.1.
func Simulate(pos Position, depth int, cfg Config, cost CostModel) (Result, error) {
	return core.Simulate(pos, depth, cfg.options(), cost)
}

package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ertree/internal/game"
	"ertree/internal/sim"
	"ertree/internal/tt"
)

// ErrAborted is returned by Search when the Cancel channel fired before the
// root was resolved. The accompanying Result carries everything the engine
// had proven at that point: Value is the root's running fail-soft lower
// bound (-Inf when no child had completed) and the statistics count the work
// actually performed.
var ErrAborted = errors.New("core: search aborted")

// ErrUnresolved reports that the workers all exited with the root still
// unresolved and no cancellation requested — an engine invariant violation.
var ErrUnresolved = errors.New("core: search terminated with unresolved root")

// Options configures a parallel ER search.
type Options struct {
	// Workers is the number of processors P. Defaults to 1.
	Workers int
	// SerialDepth is the remaining depth at or below which subtrees are
	// searched by serial ER as a single work unit (the paper's "depth
	// below which serial ER is to be used", §6). Zero parallelizes all the
	// way to the leaves.
	SerialDepth int
	// Order is the static move-ordering policy for non-e-node expansions
	// (§7). Nil means natural order.
	Order game.Orderer
	// The three speculative-work mechanisms of §5. The paper's
	// implementation enables all three; disabling them individually gives
	// the ablation experiment A1.
	ParallelRefutation bool // refute an e-node's children concurrently
	MultipleENodes     bool // keep offering additional e-children
	EarlyChoice        bool // pick an e-child before the last elder grandchild finishes
	// SpecRank selects how the speculative queue is ordered. The paper's
	// §8 calls for "a better mechanism for globally ranking speculative
	// work"; experiment A3 compares the alternatives.
	SpecRank SpecRank
	// Trace records per-processor busy intervals during Simulate so the
	// worker-utilization timeline can be rendered (cmd/ertree -timeline).
	Trace bool
	// EagerSpec relaxes the paper's speculative-queue admission rule ("all
	// but one elder grandchild evaluated") to "at least one elder
	// grandchild evaluated". Idle processors can then start additional
	// e-children during the elder-evaluation ramp, the largest starvation
	// phase at high processor counts; experiment A6 measures the effect.
	// An extension beyond the paper.
	EagerSpec bool
	// Stats, if non-nil, receives node accounting.
	Stats *game.Stats
	// Table, if non-nil, gives the real runtime's search memory at every
	// node below the root: a shared-tree node is looked up before it is
	// expanded and serial ER looks up every node of its tasks, an entry
	// that settles a node under its window finishing it; every finished
	// node stores its fail-soft value, classified against its window,
	// under tt.Key (DESIGN.md §4). Equal-depth matching keeps every cached
	// value a sound bound on the depth-limited negamax value, so the search
	// stays exact. Concurrent workers — and successive searches sharing the
	// table, such as the probes and deepening iterations of
	// internal/engine — reuse each other's work. Ignored by Simulate: the
	// simulated runtime models the paper's machine, which had no
	// transposition table, and must stay bit-stable.
	Table tt.Prober
	// RootOrder, when non-nil, is the order to generate the root's children
	// in: a permutation of the indices into the root's Children(), best
	// candidate first (a deepening driver's ordering). Result.Move and
	// Result.Scores use natural indices either way.
	RootOrder []int
	// RootWindow, when non-nil, restricts the whole search to the given
	// alpha-beta window instead of (-Inf, Inf). The result is fail-soft: a
	// value inside the window is exact, a value at or below Alpha is an
	// upper bound on the true value, a value at or above Beta a lower
	// bound. Aspiration drivers (internal/engine) use this to steer
	// iterative deepening.
	RootWindow *game.Window
	// Cancel, when non-nil, makes Search cooperatively cancellable: once
	// the channel is closed every worker abandons the search at its next
	// pop-loop check and Search returns ErrAborted together with the
	// partial result. Ignored by Simulate, which is deterministic.
	Cancel <-chan struct{}
	// Hooks, when non-nil, arms low-overhead real-runtime telemetry: worker
	// busy spans by task kind, the speculative-vs-primary work split, and
	// heap size samples, accumulated in per-worker shards and delivered at
	// worker exit (see hooks.go). Nil costs one pointer test per task.
	// Ignored by Simulate, which has its own deterministic tracing (Trace).
	Hooks *Hooks
	// ProfileLabels runs every task under runtime/pprof goroutine labels
	// task_kind and spec (events.go), so CPU/mutex/block profiles segment by
	// the Table 1 work taxonomy. Real runtime only; off by default because
	// SetGoroutineLabels costs a few tens of nanoseconds per task.
	ProfileLabels bool
}

// SpecRank is a speculative-queue ordering policy.
type SpecRank int8

const (
	// SpecRankPaper is the published ordering (§6): fewest e-children
	// first, ties broken in favor of shallower nodes.
	SpecRankPaper SpecRank = iota
	// SpecRankDepth is the "rather naive" pure depth ordering the paper's
	// §8 self-criticizes: shallowest e-nodes first.
	SpecRankDepth
	// SpecRankBound is a global ranking by promise, one answer to the
	// paper's future-work question: the e-node whose best remaining
	// candidate carries the most optimistic bound is served first.
	SpecRankBound
)

func (r SpecRank) String() string {
	switch r {
	case SpecRankDepth:
		return "depth"
	case SpecRankBound:
		return "bound"
	default:
		return "paper"
	}
}

// DefaultOptions returns the paper's configuration: all three speculation
// mechanisms enabled.
func DefaultOptions() Options {
	return Options{
		Workers:            1,
		ParallelRefutation: true,
		MultipleENodes:     true,
		EarlyChoice:        true,
	}
}

// CostModel maps engine operations to virtual time for simulated runs
// (DESIGN.md §3). Units are arbitrary; only ratios matter.
type CostModel struct {
	Node    int64 // generating one tree node (shared-tree update, under lock)
	Eval    int64 // one static evaluation (outside the lock)
	HeapOp  int64 // one problem-heap push or pop (under lock)
	Combine int64 // one step of the combine loop (under lock)
}

// DefaultCostModel makes evaluation a few times the cost of bookkeeping,
// which is typical of real game programs (and of the paper's Othello
// evaluator relative to Sequent memory operations).
func DefaultCostModel() CostModel {
	return CostModel{Node: 1, Eval: 3, HeapOp: 1, Combine: 1}
}

// Of converts a statistics snapshot into virtual time under the model: the
// cost of a purely serial search that generated those counts.
func (c CostModel) Of(s game.StatsSnapshot) int64 {
	return s.Generated*c.Node + s.TotalEvals()*c.Eval
}

// Result reports the outcome of a parallel ER search.
type Result struct {
	// Value is the root's fail-soft value. With the full window it is the
	// exact negamax value. Under Options.RootWindow it is exact when it
	// lies strictly inside the window, an upper bound on the true value
	// when it is at or below Alpha, and a lower bound when it is at or
	// above Beta. On ErrAborted it is the running value over the root
	// children that completed (-Inf when none had), a lower bound on the
	// true value when the root window is full.
	Value game.Value
	// Exact reports that Value is the exact negamax value: the root
	// resolved and the value lies strictly inside the root window. False
	// means Value is a fail-soft bound (RootWindow excluded it) or the
	// search was aborted.
	Exact bool
	// Move is the root child (natural index into the root's Children())
	// whose score proves Value, and Scores the root-view fail-soft score of
	// each root child folded into the root: exact for the proving move
	// when Exact, an upper bound for a refuted one, game.NoValue for a
	// child the root never folded (cut off or aborted first). Among moves
	// of equal value, Move is the one folded first, which can vary between
	// runs with more than one worker. Move is -1 and Scores nil when the
	// root was not expanded: a terminal position, or a root searched as one
	// serial task (SerialDepth >= depth).
	Move   int
	Scores []game.Value
	// Stats are the accumulated node counts.
	Stats game.StatsSnapshot
	// Workers is the processor count used.
	Workers int

	// Engine counters.
	SerialTasks int64 // subtrees searched by serial ER
	LeafTasks   int64 // frontier/terminal static evaluations
	SpecPops    int64 // nodes taken from the speculative queue
	Dropped     int64 // dead nodes discarded at pop time
	CutoffDrops int64 // nodes cut off at pop time (window closed while queued)
	HeapOps     int64 // pushes + pops on the problem heap

	// Transposition-table counters (all zero when Options.Table is nil).
	TTProbes  int64 // node lookups in the table
	TTHits    int64 // lookups that found an entry of the probed depth
	TTStores  int64 // node results stored
	TTCutoffs int64 // nodes the table settled without searching

	// Real-runtime measurement.
	Elapsed time.Duration

	// Simulated-runtime measurement (zero for real runs).
	VirtualTime int64 // makespan on P virtual processors
	BusyTime    int64 // total productive virtual time across processors
	StarveTime  int64 // total starvation loss (§3.1)
	LockTime    int64 // total interference loss (§3.1)
	// Timeline holds per-processor busy intervals when Options.Trace was
	// set on a simulated run.
	Timeline [][]sim.Interval
}

func (s *state) result(workers int) Result {
	return Result{
		Value:       s.root.soft,
		Exact:       s.root.done && s.root.rootWin.Contains(s.root.soft),
		Move:        s.rootMove,
		Scores:      s.rootScores,
		Stats:       s.stats.Snapshot(),
		Workers:     workers,
		SerialTasks: s.serialTasks.Load(),
		LeafTasks:   s.leafTasks.Load(),
		SpecPops:    s.heap.specPops.Load(),
		Dropped:     s.dropped.Load(),
		CutoffDrops: s.cutoffDrops.Load(),
		HeapOps:     s.heap.pushes.Load() + s.heap.pops.Load(),
		TTProbes:    s.tt.Probes,
		TTHits:      s.tt.Hits,
		TTStores:    s.tt.Stores,
		TTCutoffs:   s.tt.Cutoffs,
	}
}

// testStateHook, when non-nil, observes the search state after the result
// has been extracted and just before the node arena is released. Test
// instrumentation only.
var testStateHook func(*state)

// finalize extracts the state's counters into res-independent form and then
// severs the tree so no node outlives the search.
func (s *state) finalize() {
	if testStateHook != nil {
		testStateHook(s)
	}
	s.release()
}

// Search runs parallel ER on real goroutines and returns the root value. It
// is correct for any worker count; on a single-CPU host the workers
// interleave rather than run in parallel, so use Simulate for speedup
// measurements.
//
// When Options.Cancel fires before the root is resolved, Search returns the
// partial Result together with ErrAborted; all workers exit promptly at
// their next pop-loop check.
func Search(pos game.Position, depth int, opt Options) (Result, error) {
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	s := newState(pos, depth, opt, DefaultCostModel())
	rt := newRealRuntime()
	if opt.Cancel != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-s.opt.Cancel:
				rt.mu.Lock()
				s.aborted = true
				rt.cond.Broadcast()
				rt.mu.Unlock()
			case <-stop:
			}
		}()
	}
	start := time.Now()
	epoch := start
	if opt.Hooks != nil && !opt.Hooks.Epoch.IsZero() {
		epoch = opt.Hooks.Epoch
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// The closures read the options through s: capturing opt, larger
			// than 128 bytes, would move it to the heap on every search.
			w := newWctx(rt)
			w.labels = s.opt.ProfileLabels
			if s.opt.Hooks != nil {
				w.attachHooks(id, s.opt.Hooks, epoch)
			}
			s.worker(w)
		}(i)
	}
	wg.Wait()
	rt.mu.Lock()
	aborted := s.aborted
	rt.mu.Unlock()
	res := s.result(workers)
	res.Elapsed = time.Since(start)
	resolved := s.root.done
	s.finalize()
	if !resolved {
		if aborted {
			return res, ErrAborted
		}
		return res, ErrUnresolved
	}
	return res, nil
}

// Simulate runs parallel ER on the deterministic discrete-event simulator
// with P virtual processors under the given cost model. Results (value,
// node counts, virtual makespan, loss decomposition) are exactly
// reproducible. Options.Cancel is ignored: simulated runs always complete.
// It panics if the simulator itself deadlocks — an internal-invariant
// violation — but an unresolved root is reported as ErrUnresolved.
func Simulate(pos game.Position, depth int, opt Options, cost CostModel) (Result, error) {
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	opt.Cancel = nil
	opt.Table = nil           // the paper's machine had no transposition table
	opt.Hooks = nil           // wall-clock hooks would perturb the bit-stable virtual run
	opt.ProfileLabels = false // goroutine labels are a real-runtime concern
	s := newState(pos, depth, opt, cost)
	env := sim.NewEnv()
	if opt.Trace {
		env.EnableTrace()
	}
	res := env.NewResource("tree+heap")
	cond := env.NewCond(res)
	for i := 0; i < workers; i++ {
		env.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			s.worker(newWctx(&simRuntime{p: p, res: res, cond: cond}))
		})
	}
	if err := env.Run(); err != nil {
		panic("core: " + err.Error())
	}
	out := s.result(workers)
	resolved := s.root.done
	if resolved {
		out.VirtualTime = env.Now()
		for _, p := range env.Procs() {
			out.BusyTime += p.Busy()
			out.StarveTime += p.StarveTime()
			out.LockTime += p.LockTime()
			if opt.Trace {
				out.Timeline = append(out.Timeline, p.BusyIntervals())
			}
		}
	}
	s.finalize()
	if !resolved {
		return out, ErrUnresolved
	}
	return out, nil
}

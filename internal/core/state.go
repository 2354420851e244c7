package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ertree/internal/game"
	"ertree/internal/serial"
	"ertree/internal/tt"
)

// state is the shared search state: the game tree under construction and the
// problem heap. Tree and heap structure are guarded by the engine's single
// lock (acquired through the Runtime); the paper's implementation likewise
// shares one tree among all processors, and the resulting contention is one
// of its measured loss sources. Counters, by contrast, are atomics (or
// per-worker shards merged at exit) so the real runtime never takes the lock
// just to account for work.
type state struct {
	opt      Options
	cost     CostModel
	heap     problemHeap
	arena    nodeArena
	root     *node
	seq      uint64
	finished bool
	aborted  bool // cancellation requested; workers exit at the next pop-loop check
	stats    *game.Stats

	// engine counters (beyond game.Stats)
	serialTasks atomic.Int64
	leafTasks   atomic.Int64
	dropped     atomic.Int64 // dead nodes discarded at pop time
	cutoffDrops atomic.Int64 // nodes cut off at pop time

	// transposition-table traffic, merged from the workers' counts at exit
	// (all zero when opt.Table is nil)
	ttMu sync.Mutex
	tt   tt.Counts

	// The root's children as folded into the root: each one's root-view
	// fail-soft score by natural move index (game.NoValue until folded), and
	// the index of the one proving the root's value (-1 before any).
	// Guarded by the engine lock.
	rootScores []game.Value
	rootMove   int
}

// wctx is one worker's execution context: its runtime binding plus private
// shards for statistics and (when hooks are armed) telemetry. Hot-path
// accounting goes to the shards so concurrent workers never contend on the
// sink's cache lines; each shard is merged into its run-wide sink exactly
// once, when the worker exits.
type wctx struct {
	rt    Runtime
	stats *game.Stats
	// task counts the serial task in progress, so its cost can be charged
	// before it is merged into stats; reused by every task of the worker.
	task game.Stats

	// tt counts the worker's table traffic, serial tasks included; stores
	// holds the shared-tree results queued under the lock for the table,
	// written at the worker's next unlocked step (flushStores).
	tt     tt.Counts
	stores []pendingStore

	// Telemetry shard (hooks.go); tel is nil when hooks are disabled and
	// every instrumentation call reduces to one pointer test. rec is the
	// flight-recorder ring (events.go), nil unless Hooks.Events > 0; labels
	// arms per-task pprof goroutine labels (Options.ProfileLabels).
	hooks  *Hooks
	tel    *WorkerTelemetry
	rec    *eventRing
	epoch  time.Time
	pops   int // pop counter for heap sampling
	labels bool
}

func newWctx(rt Runtime) *wctx { return &wctx{rt: rt, stats: &game.Stats{}} }

// pendingStore is a finished shared-tree node's result awaiting its table
// write: the node's position, remaining depth, fail-soft value and the
// window it is classified against.
type pendingStore struct {
	pos   game.Position
	depth int
	value game.Value
	win   game.Window
}

// newState builds the search state around the root and schedules the root
// on the problem heap.
func newState(pos game.Position, depth int, opt Options, cost CostModel) *state {
	s := &state{opt: opt, cost: cost, stats: opt.Stats, rootMove: -1}
	if s.stats == nil {
		s.stats = &game.Stats{}
	}
	s.root = s.newNode(pos, nil, eNode, depth)
	if opt.RootWindow != nil {
		s.root.rootWin = *opt.RootWindow
	}
	s.stats.AddGenerated(1)
	s.heap.pushPrimary(s.root)
	return s
}

// release severs the search tree once a result has been extracted: the heap
// slices are dropped and every arena node is zeroed, so no node — and no
// position a node referenced — remains reachable through the state.
func (s *state) release() {
	s.heap.primary, s.heap.spec = nil, nil
	s.root = nil
	s.arena.release()
}

func (s *state) newNode(pos game.Position, parent *node, typ nodeType, depth int) *node {
	s.seq++
	n := s.arena.alloc()
	n.pos, n.parent, n.typ, n.depth, n.seq = pos, parent, typ, depth, s.seq
	n.value, n.soft = -game.Inf, -game.Inf
	if parent != nil {
		n.ply = parent.ply + 1
		n.specBorn = parent.specBorn
	} else {
		n.rootWin = game.FullWindow()
	}
	return n
}

// orderer returns the configured move orderer.
func (s *state) orderer() game.Orderer {
	if s.opt.Order == nil {
		return game.NaturalOrder{}
	}
	return s.opt.Order
}

// hasCandidate reports whether e-node E has a child that could still become
// an e-child.
func hasCandidate(E *node) bool {
	for _, k := range E.kids {
		if k.eChildCandidate() {
			return true
		}
	}
	return false
}

// pushSpeculative places e-node E on the speculative queue with the rank
// prescribed by the configured policy. Lock held.
func (s *state) pushSpeculative(E *node, w *wctx) {
	switch s.opt.SpecRank {
	case SpecRankDepth:
		// The "naive" pure-depth ordering of §8: shallowest first.
		E.specKey = int64(E.ply)
	case SpecRankBound:
		// Global promise ranking: the node whose best remaining
		// candidate has the lowest tentative value (the most optimistic
		// bound for E) is served first.
		best := game.Inf
		for _, k := range E.kids {
			if k.eChildCandidate() && k.value < best {
				best = k.value
			}
		}
		E.specKey = int64(best)
	default:
		// Paper §6: fewest e-children first, then shallower nodes.
		E.specKey = int64(E.eKids)<<32 | int64(E.ply)
	}
	s.heap.pushSpec(E)
	w.rt.HoldWork(s.cost.HeapOp)
}

// finish marks a node done with the given Figure 8 and fail-soft values and
// propagates the completion. Lock held.
func (s *state) finish(n *node, v, soft game.Value, w *wctx) {
	if debugInvariants && n.done {
		panic("core: node finished twice")
	}
	if v > n.value {
		n.value = v
	}
	if soft > n.soft {
		n.soft = soft
	}
	n.done = true
	s.combine(n, w)
}

// cutoffAtPop abandons a node whose effective window closed while it was
// queued. Both values are clamped to the window's beta so the contribution
// to its parent cannot exceed what the bound already proves. Lock held.
func (s *state) cutoffAtPop(n *node, win game.Window, w *wctx) {
	s.cutoffDrops.Add(1)
	w.stats.AddCutoffs(1)
	n.cutoff = true
	s.finish(n, game.Max(n.value, win.Beta), game.Max(n.soft, win.Beta), w)
}

// table1 applies the node-generation rules of Table 1 to a live, expanded,
// non-terminal node popped from the primary queue. Lock held.
func (s *state) table1(n *node, w *wctx) {
	switch n.typ {
	case eNode:
		// "Generate all children. Assign each child 'undecided' type.
		// Place each child on primary queue." A selected e-child already
		// has its first child materialized (the evaluated elder grandchild
		// of its parent); such a completed child counts toward this node's
		// own elder-grandchild tally, or its mandatory e-child selection
		// could never trigger.
		for _, k := range n.kids {
			if k.done && !k.elderCounted {
				k.elderCounted = true
				n.elderDone++
			}
		}
		if start := len(n.kids); start < len(n.moves) {
			for i := start; i < len(n.moves); i++ {
				k := s.newNode(n.moves[i], n, undecided, n.depth-1)
				n.kids = append(n.kids, k)
				n.activeKids++
				w.event(Event{Kind: EvSpawn, Seq: k.seq, Par: n.seq,
					Arg: int64(i), Spec: k.specBorn, Ply: int32(k.ply)})
			}
			batch := n.kids[start:]
			w.stats.AddGenerated(int64(len(batch)))
			w.rt.HoldWork(int64(len(batch)) * (s.cost.Node + s.cost.HeapOp))
			s.heap.pushPrimaryBatch(batch)
		}
		w.rt.WakeAll()
	case undecided, rNode:
		if len(n.kids) == 0 {
			// "Generate first child (an 'e-node') and place on primary
			// queue." This child is the elder grandchild when n's parent
			// is an e-node.
			k := s.newNode(n.moves[0], n, eNode, n.depth-1)
			n.kids = append(n.kids, k)
			n.activeKids++
			w.event(Event{Kind: EvSpawn, Seq: k.seq, Par: n.seq,
				Arg: 0, Spec: k.specBorn, Ply: int32(k.ply)})
			w.stats.AddGenerated(1)
			w.rt.HoldWork(s.cost.Node + s.cost.HeapOp)
			s.heap.pushPrimary(k)
			w.rt.WakeAll()
			return
		}
		if n.typ == rNode && len(n.kids) < len(n.moves) {
			// "Generate next child (an 'r-node') and place on primary
			// queue." At the serial frontier the child is examined in
			// one serial unit rather than decomposed further, so each
			// refutation step gets a fresh window while the protocol
			// bookkeeping stays bounded.
			idx := len(n.kids)
			k := s.newNode(n.moves[idx], n, rNode, n.depth-1)
			k.examine = k.depth <= s.opt.SerialDepth
			n.kids = append(n.kids, k)
			n.activeKids++
			w.event(Event{Kind: EvSpawn, Seq: k.seq, Par: n.seq,
				Arg: int64(idx), Spec: k.specBorn, Ply: int32(k.ply)})
			w.stats.AddGenerated(1)
			w.stats.AddRefutations(1)
			w.rt.HoldWork(s.cost.Node + s.cost.HeapOp)
			s.heap.pushPrimary(k)
			w.rt.WakeAll()
		}
	}
}

// combine backs the completed node's values up the tree (§6), performing
// the Table 2 actions at the first ancestor that still has work in flight.
// Lock held.
func (s *state) combine(n *node, w *wctx) {
	cur := n
	for {
		w.rt.HoldWork(s.cost.Combine)
		if s.opt.Table != nil && cur.expanded && cur.parent != nil {
			s.noteStore(cur, w)
		}
		p := cur.parent
		if p == nil {
			s.finished = true
			w.rt.WakeAll()
			return
		}
		if p.done {
			// An ancestor was resolved concurrently (cutoff); this
			// subtree's result is no longer needed.
			w.event(Event{Kind: EvDiscard, Seq: cur.seq, Par: p.seq,
				Spec: cur.specBorn, Ply: int32(cur.ply)})
			return
		}
		if p.parent == nil {
			s.foldRoot(cur)
		}
		if -cur.value > p.value {
			p.value = -cur.value
		}
		if -cur.soft > p.soft {
			p.soft = -cur.soft
		}
		p.activeKids--
		w.event(Event{Kind: EvCombine, Seq: cur.seq, Par: p.seq,
			Arg: int64(-cur.value), Spec: cur.specBorn, Ply: int32(cur.ply)})

		// "...until node has active children AND node can't be cut off."
		if win := p.window(); p.value >= win.Beta {
			p.done, p.cutoff = true, true
			w.stats.AddCutoffs(1)
			if p.activeKids > 0 {
				// The cutoff orphans in-flight children: their subtrees
				// are the speculative waste internal/flight attributes.
				w.event(Event{Kind: EvAbort, Seq: p.seq,
					Arg: int64(p.activeKids), Spec: p.specBorn, Ply: int32(p.ply)})
			}
			cur = p
			continue
		}
		if s.childDone(p, cur, w) {
			p.done = true
			cur = p
			continue
		}
		return
	}
}

// childDone applies the Table 2 bookkeeping at last_node p after its child c
// completed, and reports whether p itself is now done. Lock held.
func (s *state) childDone(p, c *node, w *wctx) bool {
	switch p.typ {
	case eNode:
		if !c.elderCounted {
			c.elderCounted = true
			p.elderDone++
		}
		switch {
		case p.refuting:
			if !s.opt.ParallelRefutation {
				s.launchNextRefuter(p, w)
			}
		case c.isEChild:
			// Table 2 row 3: "The first e-child has been evaluated...
			// Assign each active child type 'r-node' and place it on the
			// primary queue. (All children may be refuted in parallel.)"
			p.refuting = true
			s.startRefutation(p, w)
		default:
			s.elderProgress(p, w)
		}
		return p.expanded && p.activeKids == 0 && len(p.kids) == len(p.moves)

	case undecided:
		// c is p's only generated child (its first). p's value is now a
		// tentative value; p waits until its parent's protocol decides
		// whether p is an e-child or an r-node.
		if len(p.moves) == 1 {
			return true // Eval_first: done when d = 1
		}
		// Table 2 rows 4-5: an elder grandchild of p's parent finished.
		if gp := p.parent; gp != nil && gp.typ == eNode && !gp.refuting {
			if !p.elderCounted {
				p.elderCounted = true
				gp.elderDone++
			}
			s.elderProgress(gp, w)
		}
		return false

	default: // rNode
		if len(p.kids) < len(p.moves) {
			// Sequential refutation within an r-node: the next child is
			// examined only now that the current one has finished.
			s.heap.pushPrimary(p)
			w.rt.HoldWork(s.cost.HeapOp)
			w.rt.WakeAll()
			return false
		}
		if p.activeKids == 0 {
			w.stats.AddRefuteFails(1) // all children examined; not refuted
			return true
		}
		return false
	}
}

// elderProgress applies Table 2 rows 1-2 and 4-5 at e-node E: once all but
// one elder grandchild is evaluated E joins the speculative queue; once all
// are evaluated and no e-child has been selected, the best child becomes the
// e-child. Lock held.
func (s *state) elderProgress(E *node, w *wctx) {
	if E.refuting || !E.expanded || E.done {
		return
	}
	d := len(E.kids)
	// Admission threshold: the paper requires all but one elder grandchild
	// evaluated; the EagerSpec extension admits E as soon as any candidate
	// bound is known.
	threshold := d - 1
	if s.opt.EagerSpec {
		threshold = 1
	}
	if !E.eSelected {
		if E.elderDone >= d {
			// Mandatory selection (Table 2 row 2/5).
			s.selectEChild(E, w, false)
		} else if E.elderDone >= threshold && s.opt.EarlyChoice && !E.onSpec && hasCandidate(E) {
			// Table 2 row 1/4: eligible for early choice.
			s.pushSpeculative(E, w)
			w.rt.WakeAll()
		}
		return
	}
	// First e-child already selected: the speculative queue may add more.
	if s.opt.MultipleENodes && !E.onSpec && hasCandidate(E) {
		s.pushSpeculative(E, w)
		w.rt.WakeAll()
	}
}

// selectEChild promotes E's most promising undecided child (lowest tentative
// value = most optimistic bound for E) to an e-node and schedules it.
// speculative marks promotions driven by the speculative queue: the promoted
// child and every node generated under it are tagged speculative-born, the
// wall-clock analogue of the paper's primary/speculative work split (the
// tag feeds telemetry only and never steers the search). Lock held.
func (s *state) selectEChild(E *node, w *wctx, speculative bool) bool {
	var best *node
	bestV := game.Inf
	for _, k := range E.kids {
		if k.eChildCandidate() && k.value < bestV {
			best, bestV = k, k.value
		}
	}
	if best == nil {
		return false
	}
	best.typ = eNode
	best.isEChild = true
	if speculative {
		best.specBorn = true
	}
	E.eSelected = true
	E.eKids++
	w.event(Event{Kind: EvPromote, Seq: best.seq, Par: E.seq,
		Spec: speculative, Ply: int32(best.ply)})
	s.heap.pushPrimary(best)
	w.rt.HoldWork(s.cost.HeapOp)
	// "Once the elder grandchildren of E have been evaluated, ensure that
	// E always has at least one active e-child" (§5): keep E available on
	// the speculative queue while candidates remain.
	if s.opt.MultipleENodes && !E.onSpec && hasCandidate(E) {
		s.pushSpeculative(E, w)
	}
	w.rt.WakeAll()
	return true
}

// specAction handles a node taken from the speculative queue: select the
// best remaining child as an (additional) e-child and requeue the node while
// candidates remain (§6). Lock held.
func (s *state) specAction(E *node, w *wctx) {
	if E.done || E.refuting || !E.alive() {
		s.dropped.Add(1)
		return
	}
	if !s.selectEChild(E, w, true) {
		return
	}
	if s.opt.MultipleENodes && hasCandidate(E) {
		s.pushSpeculative(E, w)
	}
}

// startRefutation retypes E's unfinished children as r-nodes and, with
// parallel refutation enabled, schedules every one whose previous activity
// has finished; otherwise only the most promising refuter runs. Lock held.
func (s *state) startRefutation(E *node, w *wctx) {
	w.event(Event{Kind: EvRefute, Seq: E.seq, Spec: E.specBorn, Ply: int32(E.ply)})
	for _, k := range E.kids {
		if k.done || k.isEChild {
			continue
		}
		k.typ = rNode
	}
	if !s.opt.ParallelRefutation {
		s.launchNextRefuter(E, w)
		return
	}
	for _, k := range E.kids {
		if k.done || k.isEChild || k.typ != rNode {
			continue
		}
		s.scheduleRefuter(k, w)
	}
}

// scheduleRefuter pushes r-node k unless it is still waiting for an active
// child (an r-node examines one child at a time) or already queued.
func (s *state) scheduleRefuter(k *node, w *wctx) {
	if k.activeKids > 0 || k.inPrimary {
		return // combine will reschedule it when the child completes
	}
	if k.expanded && len(k.kids) == len(k.moves) {
		return // nothing left to generate; completion is in flight
	}
	s.heap.pushPrimary(k)
	w.rt.HoldWork(s.cost.HeapOp)
	w.rt.WakeAll()
}

// launchNextRefuter implements the sequential-refutation ablation: at most
// one r-node child of E is examined at a time, in tentative-value order.
func (s *state) launchNextRefuter(E *node, w *wctx) {
	var best *node
	bestV := game.Inf
	for _, k := range E.kids {
		if k.done || k.typ != rNode {
			continue
		}
		if k.activeKids > 0 || k.inPrimary {
			return // one already running
		}
		if k.value < bestV || best == nil {
			best, bestV = k, k.value
		}
	}
	if best != nil {
		s.scheduleRefuter(best, w)
	}
}

// serialSearcher builds the serial ER searcher for a subtree task of worker
// w rooted at ply basePly: it accumulates into the task's stats and shares
// the search's table, counting its traffic in the worker's counts.
func (s *state) serialSearcher(w *wctx, basePly int) serial.Searcher {
	return serial.WithTable(serial.Searcher{Order: s.opt.Order, Stats: &w.task, BasePly: basePly},
		s.opt.Table, &w.tt)
}

// taskCost converts a serial task's statistics into virtual time.
func (s *state) taskCost(snap game.StatsSnapshot) int64 {
	return snap.Generated*s.cost.Node + snap.TotalEvals()*s.cost.Eval
}

// foldRoot records root child c's root-view fail-soft score as it is folded
// into the root, and moves the proving move to c when c's score beats every
// score folded before it. Only such a score is known to be c's value (or a
// lower bound on it): a child folded later at an equal score was searched
// against that score and may be bounded by it, not equal to it, so ties
// stay with the child folded first. With more than one worker the fold
// order, and so which of several equally good moves proves the value, can
// vary between runs. Lock held.
func (s *state) foldRoot(c *node) {
	i := slices.Index(s.root.kids, c)
	if s.opt.RootOrder != nil {
		i = s.opt.RootOrder[i]
	}
	v := -c.soft
	s.rootScores[i] = v
	if s.rootMove < 0 || v > s.rootScores[s.rootMove] {
		s.rootMove = i
	}
}

// orderRoot puts the root's children in Options.RootOrder.
func orderRoot(moves []game.Position, order []int) []game.Position {
	out := make([]game.Position, len(order))
	for j, i := range order {
		out[j] = moves[i]
	}
	return out
}

// noteStore queues finished node n's fail-soft value for the table; n is a
// shared-tree node below the root that the search expanded, so looked up,
// with a table (serial ER stores the roots of its own tasks). The value
// is classified against n's current window. An empty window bounds nothing,
// and a node cut off before all its children finished proves only a lower
// bound, so it is stored only when its value reaches β. Lock held; the
// write itself happens at the worker's next unlocked step (flushStores),
// keeping table traffic off the engine lock.
func (s *state) noteStore(n *node, w *wctx) {
	win := n.window()
	if win.Empty() || n.cutoff && n.soft < win.Beta {
		return
	}
	w.stores = append(w.stores, pendingStore{pos: n.pos, depth: n.depth, value: n.soft, win: win})
}

// flushStores writes the worker's queued shared-tree results to the table.
// Called without the lock, at every unlocked step of every search; the
// empty check stays small enough to inline, so a search without a table
// pays no call.
func (s *state) flushStores(w *wctx) {
	if len(w.stores) > 0 {
		s.writeStores(w)
	}
}

func (s *state) writeStores(w *wctx) {
	for _, p := range w.stores {
		if h, ok := tt.Hash(p.pos); ok {
			w.tt.Record(s.opt.Table, h, p.depth, p.value, p.win)
		}
	}
	w.stores = w.stores[:0]
}

// workerDone merges an exiting worker's shards into the run-wide sinks: its
// statistics, its table traffic (after writing what it still had queued)
// and its telemetry. Called without the lock.
func (s *state) workerDone(w *wctx) {
	s.flushStores(w)
	s.stats.Merge(w.stats.Snapshot())
	s.ttMu.Lock()
	s.tt.Add(w.tt)
	s.ttMu.Unlock()
	w.flush()
}

package core

import (
	"ertree/internal/game"
	"ertree/internal/tt"
)

// worker is the per-processor loop of §6:
//
//	repeat
//	    take a node from the problem-heap;
//	    if node is a leaf then begin value := static_evaluator; combine end
//	    else generate children as specified in Table 1;
//	until done;
//
// extended with the serial-depth cut-over (nodes at remaining depth at or
// below Options.SerialDepth are searched by serial ER in one unit), lazy
// cancellation of work whose ancestors were resolved while it was queued,
// and a cooperative abort flag checked on every pop-loop round so a
// cancelled search winds down after at most one in-flight task per worker.
//
// Heavy computation (position expansion, static evaluation, serial subtree
// search, transposition-table traffic) happens outside the lock; all tree
// and heap mutation happens under it. Statistics — and, when Options.Hooks
// is set, telemetry spans — go to the worker's private shard, merged into
// the run-wide sink (or delivered to the hooks) when the worker exits.
func (s *state) worker(w *wctx) {
	defer s.workerDone(w)
	rt := w.rt
	rt.Lock()
	defer rt.Unlock()
	for {
		for !s.finished && !s.aborted && s.heap.empty() {
			rt.WaitWork()
		}
		if s.finished || s.aborted {
			return
		}
		n, fromSpec := s.heap.pop()
		if n == nil {
			// An empty pop touched no heap structure, so it charges no
			// heap time (it would otherwise count as interference the
			// paper's model never incurs).
			continue
		}
		rt.HoldWork(s.cost.HeapOp)
		w.sampleHeap(len(s.heap.primary), len(s.heap.spec))
		s.runTask(n, fromSpec, w)
	}
}

// runTask executes one popped task: the Table 1 / §6 dispatch. The node's
// queued flag was cleared at pop time. Lock held on entry and exit.
func (s *state) runTask(n *node, fromSpec bool, w *wctx) {
	if w.labels {
		setTaskLabels(s.classifyTask(n, fromSpec))
		defer clearTaskLabels()
	}
	start := w.taskStart()
	if fromSpec {
		s.specAction(n, w)
		w.taskEnd(start, TaskSpec, true, n)
		return
	}
	if !n.alive() {
		s.dropped.Add(1)
		w.taskEnd(start, TaskDrop, n.specBorn, n)
		return
	}
	win := n.window()
	if win.Empty() || n.value >= win.Beta {
		// The window closed while the node was queued: cut it off
		// without searching (a cutoff the serial algorithm would have
		// taken before recursing).
		s.cutoffAtPop(n, win, w)
		w.taskEnd(start, TaskCutoff, n.specBorn, n)
		return
	}
	switch {
	case n.depth == 0:
		s.leafTask(n, w)
		w.taskEnd(start, TaskLeaf, n.specBorn, n)
	case n.depth <= s.opt.SerialDepth && n.typ == eNode:
		// The serial cut-over matches work units to node roles. An
		// e-node's work is a complete evaluation — exactly one
		// serial ER call. Undecided and r-nodes at the frontier
		// still follow Table 1 (their work is per-child), but the
		// children they generate become single serial units: e-node
		// children full ER calls, r-node children Examine calls.
		s.serialTask(n, win, w)
		w.taskEnd(start, TaskSerial, n.specBorn, n)
	case n.examine:
		s.examineTask(n, win, w)
		w.taskEnd(start, TaskExamine, n.specBorn, n)
	default:
		if !n.expanded && !s.expandTask(n, win, w) {
			w.taskEnd(start, TaskExpand, n.specBorn, n)
			return // node died during expansion, or the table finished it
		}
		if len(n.moves) == 0 {
			s.leafTask(n, w) // terminal position above the horizon
			w.taskEnd(start, TaskLeaf, n.specBorn, n)
			return
		}
		s.table1(n, w)
		w.taskEnd(start, TaskExpand, n.specBorn, n)
	}
}

// leafTask evaluates a frontier or terminal node. Lock held on entry and
// exit; released around the evaluator call.
func (s *state) leafTask(n *node, w *wctx) {
	s.leafTasks.Add(1)
	w.rt.Unlock()
	s.flushStores(w)
	stepJitter()
	v := n.pos.Value()
	w.rt.FreeWork(s.cost.Eval)
	w.stats.AddEvaluated(1)
	w.stats.NotePly(n.ply)
	w.rt.Lock()
	if !n.alive() {
		s.dropped.Add(1)
		w.event(Event{Kind: EvDiscard, Seq: n.seq, Spec: n.specBorn, Ply: int32(n.ply)})
		return
	}
	s.finish(n, v, v, w)
}

// serialTask searches the subtree under n with serial ER using a snapshot of
// the node's window. Windows only narrow, so a snapshot is always a
// superset of the live window and the result remains sound; searching with
// the stale window is precisely the missed-cutoff speculative loss the paper
// measures. Lock held on entry and exit.
func (s *state) serialTask(n *node, win game.Window, w *wctx) {
	// A promoted e-child already carries a sound lower bound from its
	// evaluated first child; raising alpha to it prunes the (partial)
	// re-search of that subtree.
	if n.value > win.Alpha {
		win.Alpha = n.value
	}
	s.subtreeTask(n, win, false, w)
}

// examineTask performs one refutation step in one serial unit: the r-node
// child n is searched with the r-child protocol (Eval_first + Refute_rest)
// under a window snapshot taken at pop time, so each step of a sequential
// refutation sees the freshest bounds. Lock held on entry and exit.
func (s *state) examineTask(n *node, win game.Window, w *wctx) {
	s.subtreeTask(n, win, true, w)
}

// subtreeTask runs one serial work unit under win: the r-child protocol when
// examine is set, the full ER protocol otherwise. With a transposition
// table attached, serial ER looks up and stores every node of the subtree,
// the task's root included, so concurrent workers and later searches of the
// same positions reuse the subtree work. Lock held on entry and exit;
// released around the search.
func (s *state) subtreeTask(n *node, win game.Window, examine bool, w *wctx) {
	s.serialTasks.Add(1)
	w.rt.Unlock()
	s.flushStores(w)
	stepJitter()
	w.task = game.Stats{}
	searcher := s.serialSearcher(w, n.ply)
	var fig8, soft game.Value
	if examine {
		fig8, soft = searcher.ExamineValues(n.pos, n.depth, win)
	} else {
		fig8, soft = searcher.ERValues(n.pos, n.depth, win)
	}
	snap := w.task.Snapshot()
	w.rt.FreeWork(s.taskCost(snap))
	w.stats.Merge(snap)
	w.rt.Lock()
	if !n.alive() {
		s.dropped.Add(1)
		w.event(Event{Kind: EvDiscard, Seq: n.seq, Spec: n.specBorn, Ply: int32(n.ply)})
		return
	}
	s.finish(n, fig8, soft, w)
}

// expandTask generates and orders n's child positions outside the lock.
// Children of e-nodes are not statically sorted (§7): the elder-grandchild
// protocol orders them by tentative value instead, and the root's follow
// Options.RootOrder when one is given. With a table attached, a node other
// than the root is first looked up under its window win, and an entry that
// settles it finishes it unexpanded. Returns false if the node died
// meanwhile or the table finished it. Lock held on entry and exit.
func (s *state) expandTask(n *node, win game.Window, w *wctx) bool {
	// Capture the node type before dropping the lock: startRefutation can
	// retype this node to an r-node concurrently, and the ordering decision
	// must use one coherent value (the type it had when expansion began).
	isENode := n.typ == eNode
	isRoot := n.parent == nil
	w.rt.Unlock()
	s.flushStores(w)
	stepJitter()
	var (
		moves    []game.Position
		answer   game.Value
		answered bool
	)
	var h uint64
	hashed := false
	if s.opt.Table != nil && !isRoot {
		if h, hashed = tt.Hash(n.pos); hashed {
			answer, answered = w.tt.Lookup(s.opt.Table, h, n.depth, &win)
		}
	}
	var sortEvals int64
	switch {
	case answered:
	case isRoot && s.opt.RootOrder != nil:
		moves = orderRoot(n.pos.Children(), s.opt.RootOrder)
	default:
		moves = n.pos.Children()
		if len(moves) > 1 && !isENode {
			o := s.orderer()
			sortEvals = int64(o.Cost(len(moves), n.ply))
			moves = o.Order(moves, n.ply)
		}
	}
	w.rt.FreeWork(sortEvals * s.cost.Eval)
	w.stats.AddSortEvals(sortEvals)
	w.rt.Lock()
	if answered {
		w.event(Event{Kind: EvTTCutoff, Seq: n.seq, Spec: n.specBorn, Ply: int32(n.ply)})
	}
	if !n.alive() {
		s.dropped.Add(1)
		w.event(Event{Kind: EvDiscard, Seq: n.seq, Spec: n.specBorn, Ply: int32(n.ply)})
		return false
	}
	if answered {
		s.finish(n, answer, answer, w)
		return false
	}
	n.moves = moves
	n.expanded = true
	if isRoot && len(moves) > 0 {
		s.rootScores = make([]game.Value, len(moves))
		for i := range s.rootScores {
			s.rootScores[i] = game.NoValue
		}
	}
	return true
}

// testStepJitter, when non-nil, is called at each unlocked step of a task,
// after the worker has dropped the engine lock to evaluate, search a subtree
// or expand a node. The schedule fuzzer injects delays here to force rare
// interleavings (pushes racing sleeps, windows narrowing mid-task). The hook
// must not call the Runtime: the simulator charges every lock acquisition,
// so a hook that did would move the simulated schedules. Set and cleared
// only while no search is running.
var testStepJitter func()

// stepJitter runs testStepJitter when it is set; the nil check inlines, so a
// search outside the fuzzer pays one load per unlocked step.
func stepJitter() {
	if j := testStepJitter; j != nil {
		j()
	}
}

// debugInvariants arms internal-invariant panics (a node finished twice) that
// are too hot to check in production searches. Enabled by the fuzz and
// differential harnesses; set and cleared only while no search is running.
var debugInvariants bool

package core

import "ertree/internal/game"

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
	defer func() {
		s.stats.Merge(w.stats.Snapshot())
		w.flush()
	}()
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

// runTask executes one popped task: the Table 1 / §6 dispatch shared by the
// global-heap worker and the sharded-heap worker (stealworker.go). The node's
// queued flag has already been cleared — at pop time on the global heap, at
// processing time on the sharded heap — so from here both runtimes see
// identical semantics. Lock held on entry and exit.
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
		if !n.expanded && !s.expandTask(n, w) {
			w.taskEnd(start, TaskExpand, n.specBorn, n)
			return // node died during expansion
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
// table attached the task probes before searching — a stored bound narrows
// the window or answers the task outright — and stores its fail-soft result
// after, classified against the window it searched, so concurrent workers
// and later searches of the same position reuse the subtree work. A table
// answer stands for both of the node's values. Lock held on entry and exit;
// released around the probe, the search and the store.
func (s *state) subtreeTask(n *node, win game.Window, examine bool, w *wctx) {
	s.serialTasks.Add(1)
	w.rt.Unlock()
	var fig8, soft game.Value
	answered := false
	key, hashed := s.ttKey(n.pos)
	if hashed {
		soft, answered = s.ttProbe(key, n.depth, &win)
		fig8 = soft
	}
	if !answered {
		w.task = game.Stats{}
		searcher := s.serialSearcher(&w.task, n.ply)
		if examine {
			fig8, soft = searcher.ExamineValues(n.pos, n.depth, win)
		} else {
			fig8, soft = searcher.ERValues(n.pos, n.depth, win)
		}
		snap := w.task.Snapshot()
		w.rt.FreeWork(s.taskCost(snap))
		w.stats.Merge(snap)
		if hashed {
			s.ttStore(key, n.depth, win, soft)
		}
	}
	w.rt.Lock()
	if answered {
		w.event(Event{Kind: EvTTCutoff, Seq: n.seq, Spec: n.specBorn, Ply: int32(n.ply)})
	}
	if !n.alive() {
		s.dropped.Add(1)
		w.event(Event{Kind: EvDiscard, Seq: n.seq, Spec: n.specBorn, Ply: int32(n.ply)})
		return
	}
	s.finish(n, fig8, soft, w)
}

// expandTask generates and orders n's child positions outside the lock.
// Children of e-nodes are not statically sorted (§7): the elder-grandchild
// protocol orders them by tentative value instead. Returns false if the node
// died meanwhile. Lock held on entry and exit.
func (s *state) expandTask(n *node, w *wctx) bool {
	// Capture the node type before dropping the lock: startRefutation can
	// retype this node to an r-node concurrently, and the ordering decision
	// must use one coherent value (the type it had when expansion began).
	isENode := n.typ == eNode
	w.rt.Unlock()
	moves := n.pos.Children()
	var sortEvals int64
	if len(moves) > 1 && !isENode {
		o := s.orderer()
		sortEvals = int64(o.Cost(len(moves), n.ply))
		moves = o.Order(moves, n.ply)
	}
	w.rt.FreeWork(sortEvals * s.cost.Eval)
	w.stats.AddSortEvals(sortEvals)
	w.rt.Lock()
	if !n.alive() {
		s.dropped.Add(1)
		w.event(Event{Kind: EvDiscard, Seq: n.seq, Spec: n.specBorn, Ply: int32(n.ply)})
		return false
	}
	n.moves = moves
	n.expanded = true
	return true
}

// Package core implements the paper's primary contribution: the parallel ER
// game-tree search algorithm (§5-§6), organized as a problem-heap algorithm
// with a primary priority queue of scheduled work and a speculative priority
// queue of potential speculative work.
//
// The same engine runs on two runtimes (DESIGN.md §3): a real runtime using
// goroutines (true concurrency, used to validate correctness), and a
// simulated runtime on the deterministic discrete-event simulator of
// internal/sim, which reproduces the paper's 16-processor measurements with
// a virtual clock and cost model.
package core

import (
	"ertree/internal/game"
)

// nodeType is the paper's node classification: e-nodes are evaluated
// completely, r-nodes only need to be refuted, and undecided nodes await the
// outcome of the elder-grandchild protocol (§5, Table 1).
type nodeType int8

const (
	undecided nodeType = iota
	eNode
	rNode
)

func (t nodeType) String() string {
	switch t {
	case eNode:
		return "e-node"
	case rNode:
		return "r-node"
	default:
		return "undecided"
	}
}

// node is a shared game-tree node. All fields are guarded by the engine's
// single lock; positions themselves are immutable and may be read anywhere.
type node struct {
	pos    game.Position
	parent *node
	depth  int // remaining search depth (0 = static-evaluation leaf)
	ply    int // distance from the search root
	seq    uint64
	typ    nodeType

	// value is Figure 8's running value: the max over completed children
	// of the negation of their values (-Inf before any child completes),
	// where a serial task's contribution is serial ER's Figure 8 value. It
	// only ever increases, and it alone steers the search: windows,
	// cutoffs and the ranking of e-child candidates.
	value game.Value
	// soft is the fail-soft running value, folded the same way from the
	// children's fail-soft values (serial.Searcher.ERValues). It agrees
	// with value once both are clamped to the node's window, and it is
	// what the search reports and stores in the table.
	soft game.Value

	// rootWin is the search window of the whole tree; meaningful only on
	// the root node (Options.RootWindow, FullWindow by default).
	rootWin game.Window

	done   bool // value is final (subtree solved or node cut off)
	cutoff bool // done because value >= effective beta

	// moves are the ordered child positions, generated once on first
	// expansion. kids[i] is the materialized node for moves[i]; e-nodes
	// materialize all children at once, undecided and r-nodes one at a
	// time (Table 1).
	moves    []game.Position
	kids     []*node
	expanded bool // moves generated

	activeKids int // kids generated and not yet done

	// e-node protocol state (valid when typ == eNode).
	elderDone int  // children whose elder grandchild (or self) is evaluated
	eSelected bool // a first e-child has been chosen
	eKids     int  // e-children selected so far (speculative-queue rank)
	refuting  bool // first e-child evaluated; remaining children being refuted
	onSpec    bool
	specKey   int64 // speculative-queue rank, computed at push time

	// child-side flags (about this node's role under its parent).
	specBorn     bool // born of a speculative-queue e-child selection (telemetry tag only)
	isEChild     bool // this node was selected as an e-child of its parent
	elderCounted bool // parent's elderDone already includes this node
	inPrimary    bool // guards duplicate primary-queue entries
	examine      bool // refutation step at the serial frontier: search this
	// node in one serial unit with the r-child protocol (Eval_first +
	// Refute_rest) instead of decomposing it further
}

// alive reports whether no ancestor of n (nor n itself) is done; work under
// a finished ancestor is garbage and is dropped lazily at pop time.
func (n *node) alive() bool {
	for a := n; a != nil; a = a.parent {
		if a.done {
			return false
		}
	}
	return true
}

// window computes n's effective alpha-beta window from the live values of
// its ancestors. Values only increase, so windows only narrow; deep cutoffs
// come from the alpha side being inherited across levels.
func (n *node) window() game.Window {
	if n.parent == nil {
		return n.rootWin
	}
	pw := n.parent.window()
	a := pw.Alpha
	if n.parent.value > a {
		a = n.parent.value
	}
	return game.Window{Alpha: -pw.Beta, Beta: -a}
}

// tentative reports the node's current tentative value and whether anything
// is known (used to rank e-child candidates by optimism).
func (n *node) tentative() (game.Value, bool) {
	if n.value <= -game.Inf {
		return n.value, false
	}
	return n.value, true
}

// eChildCandidate reports whether n may still be chosen as an e-child of its
// (e-node) parent: it must be undecided, unfinished, and have a known
// tentative value to rank by.
func (n *node) eChildCandidate() bool {
	if n.typ != undecided || n.done {
		return false
	}
	_, known := n.tentative()
	return known
}

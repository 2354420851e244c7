package serial

import (
	"cmp"
	"slices"

	"ertree/internal/game"
	"ertree/internal/tt"
)

// This file is a transliteration of Figure 8 of the paper: the serial ER
// algorithm, decomposed into ER (the e-node protocol), Eval_first (evaluate a
// node's first child completely), and Refute_rest (examine the remaining
// children in order, trying to refute the node).
//
// Two deviations from the printed pseudocode, documented here because they
// are load-bearing.
//
// First, Figure 8's Refute_rest begins with "value := α", which discards the
// tentative value the node obtained from its first child in Eval_first.
// Taken literally that loses the first child's contribution and can return a
// value below the node's true value even inside the window, corrupting
// ancestors (the paper's §5 prose — "the refutation is said to have failed
// and E's value is increased to -R" — requires R's value to include all
// children). We therefore retain the tentative value and only raise it to
// α: value := max(value, α). With this reading ER is alpha-beta with a
// different visit order and is exact at the root, which the property tests
// verify against negmax.
//
// Second, the search is fail-soft (Fishburn's rule). Figure 8 starts every
// node at value := α, so a node that fails low returns exactly α and its
// parent fails high at exactly β: the bound says nothing beyond the window
// edge, and a driver that steers by bounds (MTD(f), aspiration re-searches,
// the transposition table) learns one unit per search. Each node therefore
// carries two values, computed in the same pass. Figure 8's value starts at
// α and is raised from each child's Figure 8 value; it alone steers the
// search — child windows, cutoffs and the tentative-value sort — so the
// searched tree is exactly Figure 8's. The fail-soft value starts at -Inf
// and is raised from each child's fail-soft value; it is what the search
// returns. Both agree once clamped to the node's window, so a fail-soft
// value inside the window is exact, one at or below α is an upper bound and
// one at or above β a lower bound, each as tight as the searched tree
// proves. Raising Figure 8's value from the children's fail-soft values
// would also be sound, but a fail-low child's bound can lift its parent
// above what Figure 8 computes, which narrows later windows and so changes
// the tree the paper measures.
//
// With a shared table (WithTable) the search is memory-enhanced: every
// node of remaining depth one or more is looked up at the entry of er and
// Eval_first, and an entry that settles the node under its window finishes
// it, both values taking the entry's value. A finished node stores its
// fail-soft value, classified against the window it finished under (after
// Refute_rest, that window's). Entries only answer; they never narrow a
// window, so every window below stays Figure 8's. Two rules keep each
// stored bound sound. A node searched under an empty window stores nothing
// (tt.Counts.Record): its value can be read as an upper and a lower bound
// at once. And Refute_rest can be entered with the node already refuted —
// its tentative value, raised to α, at or above β — in which case Figure 8
// still searches one more child, under a closed window; that child's
// result bounds nothing, so it raises Figure 8's value only and never the
// fail-soft one.

// erNode carries the per-node state of Figure 8's node record, plus the
// fail-soft value (see the comment at the top of this file). Depth and ply
// are 32-bit so that the record, with its second value, still fits in 64
// bytes: the records the store holds, and those the tentative-value sort
// moves, keep their size.
type erNode struct {
	pos   game.Position
	depth int32 // remaining search depth
	ply   int32
	value game.Value // Figure 8's value: steers windows, cutoffs and the sort
	soft  game.Value // fail-soft value: what the search returns
	done  bool
	kids  []erNode // nil until expanded
}

// raise folds the finished child k into p: each of p's values is raised
// from the negation of the same value of k.
func (p *erNode) raise(k *erNode) {
	if -k.value > p.value {
		p.value = -k.value
	}
	if -k.soft > p.soft {
		p.soft = -k.soft
	}
}

// expandER generates the children of n as one run of records, taken from
// the store: callers address a child as &kids[i], so its own expansion is
// stored in the run too. Children of e-nodes are not statically sorted (the
// tentative-value sort replaces it, §7); children expanded inside
// Eval_first are sorted by the Searcher's orderer. Every other serial search
// expands through it too (expand).
func (s *Searcher) expandER(st *store, n *erNode, sortChildren bool) []erNode {
	if n.depth == 0 {
		return nil
	}
	kids := st.children(n.pos)
	if len(kids) > 1 && sortChildren {
		o := s.orderer()
		ply := s.BasePly + int(n.ply)
		s.Stats.AddSortEvals(int64(o.Cost(len(kids), ply)))
		kids = o.Order(kids, ply)
	}
	s.Stats.AddGenerated(int64(len(kids)))
	n.kids = st.recs.Take(len(kids))
	for i, k := range kids {
		n.kids[i] = erNode{pos: k, depth: n.depth - 1, ply: n.ply + 1}
	}
	return n.kids
}

// evalLeaf finishes a node without children (or at the horizon): both of its
// values are the static value.
func (s *Searcher) evalLeaf(p *erNode) {
	p.done = true
	p.value = s.leaf(p.pos, int(p.ply))
	p.soft = p.value
}

// ER evaluates pos to the given depth with window w using serial ER and
// returns the fail-soft value: exact inside w, an upper bound at or below
// w.Alpha, a lower bound at or above w.Beta. With the full window the result
// equals Negmax.
func (s *Searcher) ER(pos game.Position, depth int, w game.Window) game.Value {
	_, soft := s.ERValues(pos, depth, w)
	return soft
}

// ERValues is ER returning both of the root's values: Figure 8's value,
// which steers a parallel search's windows and orderings above this one,
// and the fail-soft value, which bounds the position.
func (s *Searcher) ERValues(pos game.Position, depth int, w game.Window) (fig8, soft game.Value) {
	st := stores.Get().(*store)
	defer st.put()
	s.Stats.AddGenerated(1)
	root := &st.recs.Take(1)[0]
	*root = erNode{pos: pos, depth: int32(depth)}
	s.er(st, root, w.Alpha, w.Beta)
	return root.value, root.soft
}

// hash returns p's table hash when the position is hashable and p has depth
// left to search. The search must have a table.
func (s *Searcher) hash(p *erNode) (uint64, bool) {
	if p.depth < 1 {
		return 0, false
	}
	return tt.Hash(p.pos)
}

// lookup finishes p from the table when an entry settles it under
// (alpha, beta), and reports whether it did.
func (s *Searcher) lookup(p *erNode, h uint64, alpha, beta game.Value) bool {
	w := game.Window{Alpha: alpha, Beta: beta}
	v, ok := s.counts.Lookup(s.table, h, int(p.depth), &w)
	if ok {
		p.value, p.soft, p.done = v, v, true
	}
	return ok
}

// record stores finished p's fail-soft value, classified against the window
// (alpha, beta) it finished under.
func (s *Searcher) record(p *erNode, h uint64, alpha, beta game.Value) {
	s.counts.Record(s.table, h, int(p.depth), p.soft, game.Window{Alpha: alpha, Beta: beta})
}

// er is function ER of Figure 8: the e-node protocol. It evaluates the elder
// grandchildren (via Eval_first on every child), sorts the children by their
// tentative values, then refutes the remaining children in that order. With
// a table it looks p up first and stores it once finished. It releases its
// children and grandchildren when it returns.
func (s *Searcher) er(st *store, p *erNode, alpha, beta game.Value) {
	var h uint64
	hashed := false
	if s.table != nil {
		if h, hashed = s.hash(p); hashed && s.lookup(p, h, alpha, beta) {
			return
		}
	}
	m := st.mark()
	defer st.release(m)
	p.value, p.soft = alpha, -game.Inf
	kids := s.expandER(st, p, false)
	if len(kids) == 0 {
		s.evalLeaf(p)
	}
	for i := range kids {
		k := &kids[i]
		s.evalFirst(st, k, -beta, -p.value)
		if k.done {
			p.raise(k)
			if p.value >= beta {
				s.Stats.AddCutoffs(1)
				p.done = true
				break
			}
		}
	}
	if !p.done {
		// sort(P): order the children ascending by tentative value, so the
		// child most likely to be best for P is refuted (or evaluated)
		// first.
		slices.SortStableFunc(kids, func(a, b erNode) int { return cmp.Compare(a.value, b.value) })
		for i := range kids {
			k := &kids[i]
			if k.done {
				continue
			}
			s.refuteRest(st, k, -beta, -p.value)
			p.raise(k)
			if p.value >= beta {
				s.Stats.AddCutoffs(1)
				break
			}
		}
		p.done = true
	}
	if hashed {
		s.record(p, h, alpha, beta)
	}
}

// evalFirst is function Eval_first of Figure 8: completely evaluate P's
// first child (an e-node), giving P a tentative value. P is done if the
// table settles it, if it is a leaf, if the tentative value already refutes
// it, or if it has one child; a done P is stored. P's children stay in the
// store when it returns: its caller's refuteRest reads them.
func (s *Searcher) evalFirst(st *store, p *erNode, alpha, beta game.Value) {
	var h uint64
	hashed := false
	if s.table != nil {
		if h, hashed = s.hash(p); hashed && s.lookup(p, h, alpha, beta) {
			return
		}
	}
	p.value, p.soft = alpha, -game.Inf
	kids := s.expandER(st, p, true)
	if len(kids) == 0 {
		s.evalLeaf(p)
	} else {
		s.er(st, &kids[0], -beta, -p.value)
		p.raise(&kids[0])
		p.done = p.value >= beta || len(kids) == 1
		if p.value >= beta {
			s.Stats.AddCutoffs(1)
		}
	}
	if hashed && p.done {
		s.record(p, h, alpha, beta)
	}
}

// Examine evaluates pos within w using the protocol Figure 8 applies to a
// child of an r-node: Eval_first (the node's first child is an e-node,
// evaluated completely) followed, if that does not settle the node, by
// Refute_rest over its remaining children, and returns the fail-soft value.
func (s *Searcher) Examine(pos game.Position, depth int, w game.Window) game.Value {
	_, soft := s.ExamineValues(pos, depth, w)
	return soft
}

// ExamineValues is Examine returning both of the root's values, as ERValues
// does. It is the serial work unit for one refutation step at the parallel
// search's serial frontier.
func (s *Searcher) ExamineValues(pos game.Position, depth int, w game.Window) (fig8, soft game.Value) {
	st := stores.Get().(*store)
	defer st.put()
	p := &st.recs.Take(1)[0]
	*p = erNode{pos: pos, depth: int32(depth)}
	s.evalFirst(st, p, w.Alpha, w.Beta)
	if !p.done {
		s.refuteRest(st, p, w.Alpha, w.Beta)
	}
	return p.value, p.soft
}

// refuteRest is function Refute_rest of Figure 8: examine P's remaining
// children (the first was handled by Eval_first) in order, attempting to
// refute P. Each child is examined by Eval_first followed, if the child is
// not yet done, by Refute_rest — the r-node protocol. Once a child is
// folded into P its subtree is released, so one child's children are live
// at a time.
func (s *Searcher) refuteRest(st *store, p *erNode, alpha, beta game.Value) {
	s.Stats.AddRefutations(1)
	if alpha > p.value {
		p.value = alpha // see the package comment: retain the tentative value
	}
	// Entered already refuted, Figure 8 still searches the next child, under
	// a closed window: its result steers Figure 8's value only (see the
	// comment at the top of this file).
	closed := p.value >= beta
	m := st.mark()
	for i := 1; i < len(p.kids); i++ {
		k := &p.kids[i]
		s.evalFirst(st, k, -beta, -p.value)
		if !k.done {
			s.refuteRest(st, k, -beta, -p.value)
		}
		st.release(m)
		if closed {
			p.value = max(p.value, -k.value)
		} else {
			p.raise(k)
		}
		if p.value >= beta {
			s.Stats.AddCutoffs(1)
			p.done = true
			break
		}
	}
	if !p.done {
		p.done = true
		s.Stats.AddRefuteFails(1)
	}
	if s.table != nil {
		if h, ok := s.hash(p); ok {
			s.record(p, h, alpha, beta)
		}
	}
}

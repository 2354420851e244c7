package serial

import (
	"cmp"
	"slices"

	"ertree/internal/game"
)

// This file is a transliteration of Figure 8 of the paper: the serial ER
// algorithm, decomposed into ER (the e-node protocol), Eval_first (evaluate a
// node's first child completely), and Refute_rest (examine the remaining
// children in order, trying to refute the node).
//
// One deviation from the printed pseudocode, documented here because it is
// load-bearing: Figure 8's Refute_rest begins with "value := α", which
// discards the tentative value the node obtained from its first child in
// Eval_first. Taken literally that loses the first child's contribution and
// can return a value below the node's true value even inside the window,
// corrupting ancestors (the paper's §5 prose — "the refutation is said to
// have failed and E's value is increased to -R" — requires R's value to
// include all children). We therefore retain the tentative value and only
// raise it to α: value := max(value, α). With this reading ER is alpha-beta
// with a different visit order and is exact at the root, which the property
// tests verify against negmax.

// erNode carries the per-node state of Figure 8's node record.
type erNode struct {
	pos   game.Position
	depth int // remaining search depth
	ply   int
	value game.Value
	done  bool
	kids  []erNode // nil until expanded
}

// expandER generates the children of n once, as one slab: callers address a
// child as &kids[i], so its own expansion is stored in the slab too. Children
// of e-nodes are not statically sorted (the tentative-value sort replaces it,
// §7); children expanded inside Eval_first are sorted by the Searcher's
// orderer.
func (s *Searcher) expandER(n *erNode, sortChildren bool) []erNode {
	if n.kids != nil || n.depth == 0 {
		return n.kids
	}
	kids := n.pos.Children()
	if len(kids) > 1 && sortChildren {
		o := s.orderer()
		s.Stats.AddSortEvals(int64(o.Cost(len(kids), s.BasePly+n.ply)))
		kids = o.Order(kids, s.BasePly+n.ply)
	}
	s.Stats.AddGenerated(int64(len(kids)))
	n.kids = make([]erNode, len(kids))
	for i, k := range kids {
		n.kids[i] = erNode{pos: k, depth: n.depth - 1, ply: n.ply + 1}
	}
	return n.kids
}

// ER evaluates pos to the given depth with window w using serial ER.
// With the full window the result equals Negmax.
func (s *Searcher) ER(pos game.Position, depth int, w game.Window) game.Value {
	s.Stats.AddGenerated(1)
	root := &erNode{pos: pos, depth: depth}
	return s.er(root, w.Alpha, w.Beta)
}

// er is function ER of Figure 8: the e-node protocol. It evaluates the elder
// grandchildren (via Eval_first on every child), sorts the children by their
// tentative values, then refutes the remaining children in that order.
func (s *Searcher) er(p *erNode, alpha, beta game.Value) game.Value {
	p.value = alpha
	kids := s.expandER(p, false)
	if len(kids) == 0 {
		p.done = true
		p.value = s.leaf(p.pos, p.ply)
		return p.value
	}
	for i := range kids {
		k := &kids[i]
		t := -s.evalFirst(k, -beta, -p.value)
		if k.done {
			if t > p.value {
				p.value = t
			}
			if p.value >= beta {
				s.Stats.AddCutoffs(1)
				p.done = true
				return p.value
			}
		}
	}
	// sort(P): order the children ascending by tentative value, so the
	// child most likely to be best for P is refuted (or evaluated) first.
	slices.SortStableFunc(kids, func(a, b erNode) int { return cmp.Compare(a.value, b.value) })
	for i := range kids {
		k := &kids[i]
		if k.done {
			continue
		}
		t := -s.refuteRest(k, -beta, -p.value)
		if t > p.value {
			p.value = t
		}
		if p.value >= beta {
			s.Stats.AddCutoffs(1)
			p.done = true
			return p.value
		}
	}
	p.done = true
	return p.value
}

// evalFirst is function Eval_first of Figure 8: completely evaluate P's
// first child (an e-node), giving P a tentative value. P is done if it is a
// leaf, if the tentative value already refutes it, or if it has one child.
func (s *Searcher) evalFirst(p *erNode, alpha, beta game.Value) game.Value {
	p.value = alpha
	kids := s.expandER(p, true)
	if len(kids) == 0 {
		p.done = true
		p.value = s.leaf(p.pos, p.ply)
		return p.value
	}
	t := -s.er(&kids[0], -beta, -p.value)
	if t > p.value {
		p.value = t
	}
	p.done = p.value >= beta || len(kids) == 1
	if p.value >= beta {
		s.Stats.AddCutoffs(1)
	}
	return p.value
}

// Refute attempts to refute pos within window w: its children are examined
// in order by the r-node protocol (Eval_first followed by Refute_rest, §5),
// stopping as soon as the node's value reaches w.Beta. The first `skip`
// children are assumed already examined, with their contribution included in
// `tentative` (a sound lower bound). This is the serial work unit for
// r-nodes at the parallel search's serial frontier.
func (s *Searcher) Refute(pos game.Position, depth int, w game.Window, skip int, tentative game.Value) game.Value {
	p := &erNode{pos: pos, depth: depth}
	p.value = game.Max(w.Alpha, tentative)
	if depth == 0 {
		return s.leaf(pos, 0)
	}
	kids := s.expandER(p, true)
	if len(kids) == 0 {
		return s.leaf(pos, 0)
	}
	if skip > len(kids) {
		skip = len(kids)
	}
	beta := w.Beta
	for i := skip; i < len(kids); i++ {
		k := &kids[i]
		var t game.Value
		if i == 0 {
			// An r-node's first child is an e-node (Table 1): it is
			// evaluated completely by the full ER protocol.
			t = -s.er(k, -beta, -p.value)
		} else {
			t = -s.evalFirst(k, -beta, -p.value)
			if !k.done {
				t = -s.refuteRest(k, -beta, -p.value)
			}
		}
		if t > p.value {
			p.value = t
		}
		if p.value >= beta {
			s.Stats.AddCutoffs(1)
			return p.value
		}
	}
	return p.value
}

// Examine evaluates pos within w using the protocol Figure 8 applies to a
// child of an r-node: Eval_first (the node's first child is an e-node,
// evaluated completely) followed, if that does not settle the node, by
// Refute_rest over its remaining children. This is the serial work unit for
// one refutation step at the parallel search's serial frontier.
func (s *Searcher) Examine(pos game.Position, depth int, w game.Window) game.Value {
	p := &erNode{pos: pos, depth: depth}
	v := s.evalFirst(p, w.Alpha, w.Beta)
	if !p.done {
		v = s.refuteRest(p, w.Alpha, w.Beta)
	}
	return v
}

// refuteRest is function Refute_rest of Figure 8: examine P's remaining
// children (the first was handled by Eval_first) in order, attempting to
// refute P. Each child is examined by Eval_first followed, if the child is
// not yet done, by Refute_rest — the r-node protocol.
func (s *Searcher) refuteRest(p *erNode, alpha, beta game.Value) game.Value {
	s.Stats.AddRefutations(1)
	if alpha > p.value {
		p.value = alpha // see the package comment: retain the tentative value
	}
	for i := 1; i < len(p.kids); i++ {
		k := &p.kids[i]
		t := -s.evalFirst(k, -beta, -p.value)
		if !k.done {
			t = -s.refuteRest(k, -beta, -p.value)
		}
		if t > p.value {
			p.value = t
		}
		if p.value >= beta {
			s.Stats.AddCutoffs(1)
			p.done = true
			return p.value
		}
	}
	p.done = true
	s.Stats.AddRefuteFails(1)
	return p.value
}

// Package serial implements the single-processor search algorithms of the
// paper: the negmax reference procedure (§2), alpha-beta with deep cutoffs
// (§2.1), alpha-beta without deep cutoffs (§2.2, the variant whose minimal
// tree MWF exploits), and the serial ER algorithm of Figure 8.
//
// All algorithms are depth-limited: a position is treated as terminal when
// the remaining depth reaches zero or it has no children, and its static
// value is used.
package serial

import (
	"ertree/internal/game"
	"ertree/internal/tt"
)

// Searcher bundles the policies shared by the serial algorithms: a move
// orderer, a statistics sink and, for serial ER, a shared table. The zero
// value uses natural move order, discards statistics and searches without
// memory. Serial ER takes its storage from a pool for each call (er.go), so
// a Searcher holds no state of its own.
type Searcher struct {
	// Order is the move-ordering policy. Nil means game.NaturalOrder.
	Order game.Orderer
	// Stats receives node accounting. Nil discards the counts.
	Stats *game.Stats
	// BasePly is the distance of the search root from the game root, used
	// when a serial search runs as a subtree task of a parallel search so
	// that ply-dependent ordering policies see true plies.
	BasePly int

	// table, when non-nil, gives serial ER memory (er.go); counts receives
	// its traffic. Both are set only through WithTable.
	table  tt.Prober
	counts *tt.Counts
}

// WithTable returns s with memory for serial ER: every node of remaining
// depth one or more is looked up in table before it is searched and its
// fail-soft value stored after, under tt.Key, and counts receives the
// traffic. The other algorithms ignore the table. The fields it sets are
// unexported, so a Searcher built outside this module (the facade's Serial)
// never carries a table.
func WithTable(s Searcher, table tt.Prober, counts *tt.Counts) Searcher {
	s.table, s.counts = table, counts
	return s
}

func (s *Searcher) orderer() game.Orderer {
	if s.Order == nil {
		return game.NaturalOrder{}
	}
	return s.Order
}

// expand generates and orders the children of pos at the given ply, charging
// generation and ordering costs. sortChildren selectively disables ordering
// (ER does not sort successors of e-nodes, §7).
func (s *Searcher) expand(pos game.Position, ply int, sortChildren bool) []game.Position {
	kids := pos.Children()
	if len(kids) > 1 && sortChildren {
		o := s.orderer()
		s.Stats.AddSortEvals(int64(o.Cost(len(kids), s.BasePly+ply)))
		kids = o.Order(kids, s.BasePly+ply)
	}
	s.Stats.AddGenerated(int64(len(kids)))
	return kids
}

// leaf evaluates pos statically and charges the evaluation.
func (s *Searcher) leaf(pos game.Position, ply int) game.Value {
	s.Stats.AddEvaluated(1)
	s.Stats.NotePly(s.BasePly + ply)
	return pos.Value()
}

// Negmax computes the exact negamax value of pos searched to the given depth
// (paper §2). It visits the entire depth-limited tree and is the oracle
// against which every other algorithm is verified.
func (s *Searcher) Negmax(pos game.Position, depth int) game.Value {
	s.Stats.AddGenerated(1)
	return s.negmax(pos, depth, 0)
}

func (s *Searcher) negmax(pos game.Position, depth, ply int) game.Value {
	if depth == 0 {
		return s.leaf(pos, ply)
	}
	kids := s.expand(pos, ply, false)
	if len(kids) == 0 {
		return s.leaf(pos, ply)
	}
	m := -game.Inf
	for _, k := range kids {
		if v := -s.negmax(k, depth-1, ply+1); v > m {
			m = v
		}
	}
	return m
}

// AlphaBeta computes the negamax value of pos using fail-soft alpha-beta
// with deep cutoffs (§2.1). With the full window the result equals Negmax.
func (s *Searcher) AlphaBeta(pos game.Position, depth int, w game.Window) game.Value {
	s.Stats.AddGenerated(1)
	return s.alphaBeta(pos, depth, 0, w)
}

func (s *Searcher) alphaBeta(pos game.Position, depth, ply int, w game.Window) game.Value {
	if depth == 0 {
		return s.leaf(pos, ply)
	}
	kids := s.expand(pos, ply, true)
	if len(kids) == 0 {
		return s.leaf(pos, ply)
	}
	m := -game.Inf
	for _, k := range kids {
		t := -s.alphaBeta(k, depth-1, ply+1, w.Child(m))
		if t > m {
			m = t
		}
		if m >= w.Beta {
			s.Stats.AddCutoffs(1)
			return m
		}
	}
	return m
}

// AlphaBetaNoDeep computes the negamax value of pos using alpha-beta with
// shallow cutoffs only (Baudet's observation in §2.2 that deep cutoffs are a
// second-order effect; several algorithms, including MWF's reference, omit
// them). Only the immediate parent's running value bounds the search, so the
// alpha side of the window is never inherited across two plies.
func (s *Searcher) AlphaBetaNoDeep(pos game.Position, depth int, beta game.Value) game.Value {
	s.Stats.AddGenerated(1)
	return s.alphaBetaNoDeep(pos, depth, 0, beta)
}

func (s *Searcher) alphaBetaNoDeep(pos game.Position, depth, ply int, beta game.Value) game.Value {
	if depth == 0 {
		return s.leaf(pos, ply)
	}
	kids := s.expand(pos, ply, true)
	if len(kids) == 0 {
		return s.leaf(pos, ply)
	}
	m := -game.Inf
	for _, k := range kids {
		t := -s.alphaBetaNoDeep(k, depth-1, ply+1, -m)
		if t > m {
			m = t
		}
		if m >= beta {
			s.Stats.AddCutoffs(1)
			return m
		}
	}
	return m
}

// Package serial implements the single-processor search algorithms of the
// paper: the negmax reference procedure (§2), alpha-beta with deep cutoffs
// (§2.1), alpha-beta without deep cutoffs (§2.2, the variant whose minimal
// tree MWF exploits), the serial ER algorithm of Figure 8, and the scout
// (PVS) of its footnote 3, which the serial and lazysmp backends run.
//
// All algorithms are depth-limited: a position is treated as terminal when
// the remaining depth reaches zero or it has no children, and its static
// value is used. All share one child path: each search takes a pooled store
// (store.go) and generates children into it, so once the store is warm a
// search allocates nothing per generated node.
package serial

import (
	"ertree/internal/game"
	"ertree/internal/tt"
)

// Searcher bundles the policies shared by the serial algorithms: a move
// orderer, a statistics sink and, for serial ER and the scout, a shared
// table. The zero value uses natural move order, discards statistics and
// searches without memory. Every search takes its storage from a pool for
// each call (store.go), so a Searcher holds no state of its own.
type Searcher struct {
	// Order is the move-ordering policy. Nil means game.NaturalOrder.
	Order game.Orderer
	// Stats receives node accounting. Nil discards the counts.
	Stats *game.Stats
	// BasePly is the distance of the search root from the game root, used
	// when a serial search runs as a subtree task of a parallel search so
	// that ply-dependent ordering policies see true plies.
	BasePly int

	// table, when non-nil, gives serial ER (er.go) and the scout (pvs.go)
	// memory; counts receives its traffic. Both are set only through
	// WithTable.
	table  tt.Prober
	counts *tt.Counts
}

// WithTable returns s with memory for serial ER and the scout (PVS,
// PVSRoot): every node of remaining depth one or more is looked up in table
// before it is searched and its fail-soft value stored after, under tt.Key,
// and counts receives the traffic. The other algorithms ignore the table.
// The fields it sets are unexported, so a Searcher built outside this module
// (the facade's Serial) never carries a table.
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

// expand generates and orders the children of pos, a node at the given ply
// with depth left, as a run of the store's records (expandER), charging
// generation and ordering costs. The run stays valid until the caller
// releases the store to a mark taken before it. sortChildren selectively
// disables ordering.
func (s *Searcher) expand(st *store, pos game.Position, depth, ply int, sortChildren bool) []erNode {
	n := erNode{pos: pos, depth: int32(depth), ply: int32(ply)}
	return s.expandER(st, &n, sortChildren)
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
	st := stores.Get().(*store)
	defer st.put()
	s.Stats.AddGenerated(1)
	return s.negmax(st, pos, depth, 0)
}

func (s *Searcher) negmax(st *store, pos game.Position, depth, ply int) game.Value {
	if depth == 0 {
		return s.leaf(pos, ply)
	}
	defer st.release(st.mark())
	kids := s.expand(st, pos, depth, ply, false)
	if len(kids) == 0 {
		return s.leaf(pos, ply)
	}
	m := -game.Inf
	for i := range kids {
		if v := -s.negmax(st, kids[i].pos, depth-1, ply+1); v > m {
			m = v
		}
	}
	return m
}

// AlphaBeta computes the negamax value of pos using fail-soft alpha-beta
// with deep cutoffs (§2.1). With the full window the result equals Negmax.
func (s *Searcher) AlphaBeta(pos game.Position, depth int, w game.Window) game.Value {
	st := stores.Get().(*store)
	defer st.put()
	s.Stats.AddGenerated(1)
	return s.alphaBeta(st, pos, depth, 0, w)
}

func (s *Searcher) alphaBeta(st *store, pos game.Position, depth, ply int, w game.Window) game.Value {
	if depth == 0 {
		return s.leaf(pos, ply)
	}
	defer st.release(st.mark())
	kids := s.expand(st, pos, depth, ply, true)
	if len(kids) == 0 {
		return s.leaf(pos, ply)
	}
	m := -game.Inf
	for i := range kids {
		t := -s.alphaBeta(st, kids[i].pos, depth-1, ply+1, w.Child(m))
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
	st := stores.Get().(*store)
	defer st.put()
	s.Stats.AddGenerated(1)
	return s.alphaBetaNoDeep(st, pos, depth, 0, beta)
}

func (s *Searcher) alphaBetaNoDeep(st *store, pos game.Position, depth, ply int, beta game.Value) game.Value {
	if depth == 0 {
		return s.leaf(pos, ply)
	}
	defer st.release(st.mark())
	kids := s.expand(st, pos, depth, ply, true)
	if len(kids) == 0 {
		return s.leaf(pos, ply)
	}
	m := -game.Inf
	for i := range kids {
		t := -s.alphaBetaNoDeep(st, kids[i].pos, depth-1, ply+1, -m)
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

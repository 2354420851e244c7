package serial

import (
	"ertree/internal/game"
	"ertree/internal/tt"
)

// AlphaBetaTT is fail-soft alpha-beta with a transposition table. Positions
// implementing tt.Hashable are probed and stored; others search normally.
// Matching is equal-depth only, so the result is exactly the depth-limited
// negamax value (no search-instability effects from mixing depths), which
// the tests exploit: with or without the table, the value is identical.
func (s *Searcher) AlphaBetaTT(pos game.Position, depth int, w game.Window, table *tt.Table) game.Value {
	st := stores.Get().(*store)
	defer st.put()
	s.Stats.AddGenerated(1)
	return s.alphaBetaTT(st, pos, depth, 0, w, table)
}

func (s *Searcher) alphaBetaTT(st *store, pos game.Position, depth, ply int, w game.Window, table *tt.Table) game.Value {
	if depth == 0 {
		return s.leaf(pos, ply)
	}
	var key uint64
	hashable := false
	if h, ok := pos.(tt.Hashable); ok && table != nil {
		key = h.Hash()
		hashable = true
		if e, ok := table.Probe(key, depth); ok {
			switch e.Bound {
			case tt.Exact:
				return e.Value
			case tt.Lower:
				if e.Value >= w.Beta {
					s.Stats.AddCutoffs(1)
					return e.Value
				}
				if e.Value > w.Alpha {
					w.Alpha = e.Value
				}
			case tt.Upper:
				if e.Value <= w.Alpha {
					return e.Value
				}
				if e.Value < w.Beta {
					w.Beta = e.Value
				}
			}
		}
	}
	defer st.release(st.mark())
	kids := s.expand(st, pos, depth, ply, true)
	if len(kids) == 0 {
		return s.leaf(pos, ply)
	}
	m := -game.Inf
	cut := false
	for i := range kids {
		t := -s.alphaBetaTT(st, kids[i].pos, depth-1, ply+1, w.Child(m), table)
		if t > m {
			m = t
		}
		if m >= w.Beta {
			s.Stats.AddCutoffs(1)
			cut = true
			break
		}
	}
	if hashable {
		switch {
		case cut || m >= w.Beta:
			table.Store(key, depth, m, tt.Lower)
		case m <= w.Alpha:
			table.Store(key, depth, m, tt.Upper)
		default:
			table.Store(key, depth, m, tt.Exact)
		}
	}
	return m
}

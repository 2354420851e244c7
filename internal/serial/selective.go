package serial

import "ertree/internal/game"

// AlphaBetaSelectiveSort is alpha-beta with the sorting optimization the
// paper sketches in §7: "It is possible to reduce the sorting overhead for
// alpha-beta, since the children of critical 1-nodes and 3-nodes need not be
// sorted." The paper leaves open whether serial ER would still win on O1
// against this variant; experiment A4 answers that for this reproduction.
//
// Node types follow the Knuth/Moore expected-type rules (§2.2): the root is
// type 1; the first child of a type-1 node is type 1 and the rest are type
// 2; the first child of a type-2 node is type 3 and the rest are type 2
// (they are reached only when an earlier sibling fails to cut); children of
// a type-3 node are type 2. Only type-2 nodes sort their children — a
// type-2 node needs its best child first to produce the cutoff, while 1-
// and 3-nodes must examine all children anyway.
func (s *Searcher) AlphaBetaSelectiveSort(pos game.Position, depth int, w game.Window) game.Value {
	st := stores.Get().(*store)
	defer st.put()
	s.Stats.AddGenerated(1)
	return s.alphaBetaSel(st, pos, depth, 0, w, 1)
}

func (s *Searcher) alphaBetaSel(st *store, pos game.Position, depth, ply int, w game.Window, ntype int8) game.Value {
	if depth == 0 {
		return s.leaf(pos, ply)
	}
	defer st.release(st.mark())
	kids := s.expand(st, pos, depth, ply, ntype == 2)
	if len(kids) == 0 {
		return s.leaf(pos, ply)
	}
	m := -game.Inf
	for i := range kids {
		var childType int8
		switch {
		case ntype == 1 && i == 0:
			childType = 1
		case ntype == 1:
			childType = 2
		case ntype == 2 && i == 0:
			childType = 3
		case ntype == 2:
			childType = 2
		default: // ntype == 3
			childType = 2
		}
		t := -s.alphaBetaSel(st, kids[i].pos, depth-1, ply+1, w.Child(m), childType)
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

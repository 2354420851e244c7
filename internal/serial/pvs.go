package serial

import (
	"ertree/internal/game"
	"ertree/internal/tt"
)

// PVS is principal-variation search (minimal-window search), the technique
// behind the pv-splitting variant of Marsland and Popowich that the paper's
// footnote 3 describes: the first child is searched with the full window;
// every later child is first *verified* with a null window (alpha, alpha+1),
// which is cheap when the first child really is best, and re-searched with
// the proper window only when the verification fails high.
//
// The result is fail-soft: exact inside w, an upper bound at or below
// w.Alpha, a lower bound at or above w.Beta. With a full root window it
// equals Negmax exactly. With a table (WithTable) every node of remaining
// depth one or more is looked up before it is expanded and stored after.
func (s *Searcher) PVS(pos game.Position, depth int, w game.Window) game.Value {
	st := stores.Get().(*store)
	defer st.put()
	s.Stats.AddGenerated(1)
	return s.pvs(st, pos, depth, 0, w)
}

// Root is the outcome of a root search (PVSRoot).
type Root struct {
	// Value is the fail-soft root value.
	Value game.Value
	// Move is the natural index of the root child proving Value, or -1 when
	// the root was searched as a leaf.
	Move int
	// Scores holds each root child's root-view fail-soft score in natural
	// order, game.NoValue for a child the search never reached; nil when
	// Move is -1.
	Scores []game.Value
}

// PVSRoot searches pos to depth under w with the scout below the root and
// reports the proving root move and every root child's score, for the
// serial and lazysmp backends. The root's children are tried in order (a
// permutation of natural indices, best candidate first; nil means natural
// order), each under the window (-w.Beta, -max(w.Alpha, best so far)), so a
// refuted move fails low against the best score quickly while the best
// move's score stays exact within w; the proving move is the first child
// folded at the best score. A child folded later at an equal score is only
// bounded by it. The root itself is neither looked up nor stored.
//
// When cancel, if non-nil, closes before the root resolves, PVSRoot stops
// within 256 node entries and returns false with the scores folded so far;
// the table keeps only results the search finished.
func PVSRoot(s *Searcher, pos game.Position, depth int, w game.Window, order []int, cancel <-chan struct{}) (Root, bool) {
	st := stores.Get().(*store)
	defer st.put()
	st.cancel = cancel
	s.Stats.AddGenerated(1)
	kids := s.expand(st, pos, depth, 0, false)
	if len(kids) == 0 {
		return Root{Value: s.leaf(pos, 0), Move: -1}, true
	}
	r := Root{Value: -game.Inf, Move: -1, Scores: make([]game.Value, len(kids))}
	for i := range r.Scores {
		r.Scores[i] = game.NoValue
	}
	n := len(kids)
	if order != nil {
		n = len(order)
	}
	for j := 0; j < n; j++ {
		a := max(w.Alpha, r.Value)
		if a >= w.Beta {
			break // the window is closed: the search fails high
		}
		i := j
		if order != nil {
			i = order[j]
		}
		v := -s.pvs(st, kids[i].pos, depth-1, 1, game.Window{Alpha: -w.Beta, Beta: -a})
		if st.stopped {
			return r, false
		}
		r.Scores[i] = v
		if v > r.Value || r.Move < 0 {
			r.Value, r.Move = v, i
		}
	}
	return r, true
}

// pvs is the scout at one node. With a table, a node of remaining depth one
// or more is looked up first: an entry that settles it under w answers it
// unexpanded, and a bound inside w narrows w. The node then stores its
// fail-soft value classified against the window it was searched under, the
// narrowed one: equal-depth matching keeps that classification sound
// (Wesselink et al.). Once the store's cancel channel has fired every node
// returns at once, with a meaningless value, and stores nothing.
func (s *Searcher) pvs(st *store, pos game.Position, depth, ply int, w game.Window) game.Value {
	if st.cancelled() {
		return 0
	}
	if depth == 0 {
		return s.leaf(pos, ply)
	}
	var h uint64
	hashed := false
	if s.table != nil {
		if h, hashed = tt.Hash(pos); hashed {
			if v, ok := s.counts.Lookup(s.table, h, depth, &w); ok {
				return v
			}
		}
	}
	defer st.release(st.mark())
	kids := s.expand(st, pos, depth, ply, true)
	if len(kids) == 0 {
		return s.leaf(pos, ply)
	}
	m := -game.Inf
	for i := range kids {
		k, a := kids[i].pos, max(w.Alpha, m)
		var t game.Value
		if i == 0 {
			t = -s.pvs(st, k, depth-1, ply+1, game.Window{Alpha: -w.Beta, Beta: -a})
		} else {
			// Null-window verification: is the child worse than the best so
			// far?
			t = -s.pvs(st, k, depth-1, ply+1, game.Window{Alpha: -(a + 1), Beta: -a})
			if t > a && t < w.Beta {
				// Verification failed high inside the window: re-search with
				// the proper window for the exact value.
				t = -s.pvs(st, k, depth-1, ply+1, game.Window{Alpha: -w.Beta, Beta: -a})
			}
		}
		if st.stopped {
			return 0
		}
		m = max(m, t)
		if m >= w.Beta {
			s.Stats.AddCutoffs(1)
			break
		}
	}
	if hashed {
		s.counts.Record(s.table, h, depth, m, w)
	}
	return m
}

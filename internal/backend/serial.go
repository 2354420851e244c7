package backend

import (
	"ertree/internal/game"
	"ertree/internal/tt"
)

func init() { Register("serial", newSerial) }

// serialBackend is single-threaded scout/PVS over the shared transposition
// table: the first child of every node is searched with the full child
// window, later children are verified with a null window and re-searched
// only on an in-window fail-high. It is the one-processor reference the
// parallel backends are benchmarked against, and (being the cheapest
// cancellable TT search in the repository) the building block the lazysmp
// workers deepen with.
type serialBackend struct {
	cfg Config
}

func newSerial(cfg Config) Backend { return &serialBackend{cfg: cfg} }

func (b *serialBackend) Name() string { return "serial" }

func (b *serialBackend) Search(req Request) (Response, error) {
	kids := req.Pos.Children()
	if req.Depth < 1 || len(kids) == 0 {
		return LeafResponse(req), nil
	}
	var tot Totals
	sc := &TTScout{
		Order:  b.cfg.Order,
		Table:  b.cfg.Table,
		Cancel: req.Cancel,
		Totals: &tot,
	}
	r, err := RootScout(kids, req.Depth, req.Window, req.RootOrder, sc.Search)
	return Response{
		Value:   r.Value,
		Move:    r.Move,
		Exact:   err == nil && req.Window.Contains(r.Value),
		Scores:  r.Scores,
		Totals:  tot,
		Workers: 1,
	}, err
}

// TTScout is a cancellable fail-soft scout (PVS) searcher over a shared
// transposition table, exported so internal/lazysmp's deepening workers run
// the exact same node semantics as the serial backend. Every node that
// implements tt.Hashable is probed before expansion and its fail-soft result
// stored after, through ttPolicy (depth-salted keys with equal-depth
// matching), so the cached bounds keep every returned value the sound
// depth-limited negamax bound.
// Not safe for concurrent use; each worker owns one.
type TTScout struct {
	Order  game.Orderer
	Table  tt.SharedTable // nil (or typed nil) searches without memory
	Cancel <-chan struct{}
	// Totals receives the node and table accounting. Must be non-nil.
	Totals *Totals

	steps int64 // cancellation-check pacing
}

// cancelCheckMask paces the Cancel poll: every 256 recursion entries, cheap
// enough to vanish in the noise, frequent enough that a deadline cut aborts
// within microseconds of real work.
const cancelCheckMask = 255

func (s *TTScout) checkCancel() error {
	if s.Cancel == nil {
		return nil
	}
	s.steps++
	if s.steps&cancelCheckMask != 0 {
		return nil
	}
	select {
	case <-s.Cancel:
		return ErrAborted
	default:
		return nil
	}
}

// Search returns the fail-soft value of pos at exactly depth under w.
func (s *TTScout) Search(pos game.Position, depth int, w game.Window) (game.Value, error) {
	return s.search(pos, depth, 0, w)
}

func (s *TTScout) search(pos game.Position, depth, ply int, w game.Window) (game.Value, error) {
	if err := s.checkCancel(); err != nil {
		return 0, err
	}
	if depth == 0 {
		s.Totals.LeafTasks++
		return pos.Value(), nil
	}
	policy := ttPolicy{table: s.Table}
	cached, done, key, hashable := policy.probeChild(pos, depth, &w, s.Totals)
	if done {
		return cached, nil
	}
	kids := pos.Children()
	if len(kids) == 0 {
		s.Totals.LeafTasks++
		return pos.Value(), nil
	}
	if len(kids) > 1 && s.Order != nil {
		kids = s.Order.Order(kids, ply)
	}
	s.Totals.Nodes += int64(len(kids))
	m := -game.Inf
	for i, k := range kids {
		a := w.Alpha
		if m > a {
			a = m
		}
		var v game.Value
		var err error
		if i == 0 {
			v, err = s.search(k, depth-1, ply+1, game.Window{Alpha: -w.Beta, Beta: -a})
			v = -v
		} else {
			// Scout: can this child beat the best so far? Null window.
			v, err = s.search(k, depth-1, ply+1, game.Window{Alpha: -(a + 1), Beta: -a})
			v = -v
			if err == nil && v > a && v < w.Beta {
				// In-window fail-high: re-search with the proper window for
				// the exact (fail-soft) value.
				var v2 game.Value
				v2, err = s.search(k, depth-1, ply+1, game.Window{Alpha: -w.Beta, Beta: -a})
				v = -v2
			}
		}
		if err != nil {
			return 0, err
		}
		if v > m {
			m = v
		}
		if m >= w.Beta {
			break
		}
	}
	if hashable {
		// Classify against the (possibly table-narrowed) window actually
		// searched; equal-depth matching keeps the narrowed bounds, and so
		// the classification, sound.
		policy.storeChild(key, depth, m, w, s.Totals)
	}
	return m, nil
}

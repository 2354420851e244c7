package tt

import "ertree/internal/game"

// depthSalt decorrelates the entries one position keeps per depth.
const depthSalt = 0x9E3779B97F4A7C15

// Key is the one keying every search uses on a shared table: the position's
// hash salted with the remaining depth. Probes match equal depth, so a
// position keeps one entry per depth (iterative deepening's per-depth
// results coexist) and every hit is a bound on the exact depth-limited
// negamax value.
func Key(h uint64, depth int) uint64 { return h ^ uint64(depth)*depthSalt }

// Counts tallies the table traffic one searcher issues. Each operation is
// counted once, by the code that issues it; a searcher that runs on several
// goroutines keeps one Counts per goroutine and merges them.
type Counts struct {
	Probes  int64 // table lookups
	Hits    int64 // lookups that found an entry of the probed depth
	Stores  int64 // results written
	Cutoffs int64 // lookups whose entry settled the search outright
}

// Add folds o into c.
func (c *Counts) Add(o Counts) {
	c.Probes += o.Probes
	c.Hits += o.Hits
	c.Stores += o.Stores
	c.Cutoffs += o.Cutoffs
}

// Lookup probes t for the position with hash h at remaining depth and applies
// the entry to the fail-soft window w of the search about to run. It reports
// true when the entry settles that search: v is then what a fail-soft search
// under w would return (an exact value, a lower bound at or above Beta, an
// upper bound at or below Alpha). Otherwise a bound inside w narrows it in
// place, and the search runs under the narrowed window.
func (c *Counts) Lookup(t Prober, h uint64, depth int, w *game.Window) (v game.Value, ok bool) {
	c.Probes++
	e, hit := t.Probe(Key(h, depth), depth)
	if !hit {
		return 0, false
	}
	c.Hits++
	switch e.Bound {
	case Exact:
		c.Cutoffs++
		return e.Value, true
	case Lower:
		if e.Value >= w.Beta {
			c.Cutoffs++
			return e.Value, true
		}
		if e.Value > w.Alpha {
			w.Alpha = e.Value
		}
	default: // Upper
		if e.Value <= w.Alpha {
			c.Cutoffs++
			return e.Value, true
		}
		if e.Value < w.Beta {
			w.Beta = e.Value
		}
	}
	return 0, false
}

// Record stores the fail-soft value v of a search of the position with hash h
// to depth under window w, classified against w (Wesselink et al.): at or
// below Alpha an upper bound, at or above Beta a lower bound, exact in
// between. A search under an empty window bounds nothing (v could be read
// as an upper and a lower bound at once), so it stores nothing.
func (c *Counts) Record(t Prober, h uint64, depth int, v game.Value, w game.Window) {
	if w.Empty() {
		return
	}
	b := Exact
	switch {
	case v <= w.Alpha:
		b = Upper
	case v >= w.Beta:
		b = Lower
	}
	c.Stores++
	t.Store(Key(h, depth), depth, v, b)
}

// Hash returns pos's table hash when the position implements Hashable.
func Hash(pos game.Position) (uint64, bool) {
	h, ok := pos.(Hashable)
	if !ok {
		return 0, false
	}
	return h.Hash(), true
}

package core

import (
	"fmt"
	"testing"

	"ertree/internal/game"
	"ertree/internal/serial"
)

// TestWindowEdgeShare checks that ER's bounds are as tight as alpha-beta's.
// Each seeded Othello, Connect Four and checkers midgame is searched at the
// depths of the benchmark's MTD(f) workload under null windows 8 and 40
// away from its exact value on either side. A search that fails returns a
// bound; it is counted when the bound is the window edge itself (alpha on a
// fail-low, beta on a fail-high), the one bound a fail-hard search returns.
// MTD(f) learns only one unit from such a probe. Serial ER and Search
// (P = 1, SerialDepth 1 and 3) may return the edge at most 0.10 more often
// than serial alpha-beta on the same searches, and every result must be a
// correct fail-soft bound.
func TestWindowEdgeShare(t *testing.T) {
	const slack = 0.10
	for _, f := range gameFamilies(8, 4, 6, 5) {
		type searcher struct {
			name   string
			search func(pos game.Position, w game.Window) game.Value
		}
		searchers := []searcher{
			{"alpha-beta", func(pos game.Position, w game.Window) game.Value {
				return (&serial.Searcher{Order: f.order}).AlphaBeta(pos, f.depth, w)
			}},
			{"serial ER", func(pos game.Position, w game.Window) game.Value {
				return (&serial.Searcher{Order: f.order}).ER(pos, f.depth, w)
			}},
		}
		for _, sd := range []int{1, 3} {
			searchers = append(searchers, searcher{fmt.Sprintf("Search sd%d", sd),
				func(pos game.Position, w game.Window) game.Value {
					opt := DefaultOptions()
					opt.Order = f.order
					opt.SerialDepth = sd
					opt.RootWindow = &w
					return mustSearch(t, pos, f.depth, opt).Value
				}})
		}
		shares := make([]float64, len(searchers))
		searches := 0
		for _, pos := range f.positions {
			exact := (&serial.Searcher{Order: f.order}).AlphaBeta(pos, f.depth, game.FullWindow())
			for _, d := range []game.Value{8, 40} {
				for _, w := range []game.Window{
					{Alpha: exact - d - 1, Beta: exact - d}, // fails high
					{Alpha: exact + d, Beta: exact + d + 1}, // fails low
				} {
					searches++
					for i, s := range searchers {
						v := s.search(pos, w)
						if !w.FailSoft(v, exact) {
							t.Fatalf("%s %s window (%d,%d): %d is not a fail-soft result for exact %d",
								f.name, s.name, w.Alpha, w.Beta, v, exact)
						}
						if v == w.Alpha || v == w.Beta {
							shares[i]++
						}
					}
				}
			}
		}
		for i, s := range searchers {
			shares[i] /= float64(searches)
			t.Logf("%s: %s returned the window edge in %.2f of %d searches", f.name, s.name, shares[i], searches)
		}
		for i := 1; i < len(shares); i++ {
			if shares[i] > shares[0]+slack {
				t.Errorf("%s: %s returned the window edge in %.2f of searches, alpha-beta in %.2f (slack %.2f)",
					f.name, searchers[i].name, shares[i], shares[0], slack)
			}
		}
	}
}

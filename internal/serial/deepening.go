package serial

import "ertree/internal/game"

// Iterative deepening with aspiration windows: the standard driver real
// game programs wrap around a fixed-depth search (and the serial use of
// Baudet's aspiration idea from §4.1). Each iteration searches one ply
// deeper with a narrow window centered on the previous value, re-searching
// with a wider window on failure. The final value is exact for MaxDepth.

// DeepeningOptions configures IterativeDeepening.
type DeepeningOptions struct {
	// MaxDepth is the final search depth. Must be at least 1.
	MaxDepth int
	// Delta is the aspiration half-window around the previous iteration's
	// value. Zero means full-window iterations (no aspiration).
	Delta game.Value
}

// DeepeningResult reports one iteration of the deepening driver.
type DeepeningResult struct {
	Depth      int
	Value      game.Value
	Researches int // extra searches forced by aspiration failures
}

// IterativeDeepening runs depth 1..MaxDepth alpha-beta searches, steering
// each with an aspiration window around the previous value, and returns the
// per-depth results. The last entry's Value is the exact value at MaxDepth.
func (s *Searcher) IterativeDeepening(pos game.Position, opt DeepeningOptions) []DeepeningResult {
	if opt.MaxDepth < 1 {
		return nil
	}
	var out []DeepeningResult
	prev := game.NoValue
	for depth := 1; depth <= opt.MaxDepth; depth++ {
		w := game.FullWindow()
		if opt.Delta > 0 && prev != game.NoValue {
			w = game.Window{Alpha: prev - opt.Delta, Beta: prev + opt.Delta}
		}
		res := DeepeningResult{Depth: depth}
		for {
			v := s.AlphaBeta(pos, depth, w)
			if v <= w.Alpha && w.Alpha > -game.Inf {
				// Fail low: the true value is at most v; reopen the
				// lower half. The re-search window contains the value,
				// so at most one re-search per side is needed.
				res.Researches++
				w = game.Window{Alpha: -game.Inf, Beta: v + 1}
				continue
			}
			if v >= w.Beta && w.Beta < game.Inf {
				// Fail high: the true value is at least v; reopen the
				// upper half.
				res.Researches++
				w = game.Window{Alpha: v - 1, Beta: game.Inf}
				continue
			}
			res.Value = v
			break
		}
		prev = res.Value
		out = append(out, res)
	}
	return out
}

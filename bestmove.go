package ertree

import (
	"errors"

	"ertree/internal/serial"
)

// ErrNoMoves reports a position with no legal moves passed to BestMove.
var ErrNoMoves = errors.New("ertree: position has no legal moves")

// Move pairs a move index (position in the root's Children slice, natural
// move order) with its negamax score from the root player's view. Exact
// reports whether Score is the move's exact value; when false the move was
// refuted by a scout search and Score is a fail-soft upper bound — enough to
// know the move is no better than the best.
type Move struct {
	Index int
	Score Value
	Exact bool
}

// BestMove searches pos to the given depth with one parallel ER search
// (Search, full window, the root expanded) and returns the move with the
// highest score, together with every move's score. Only the proving move's
// score is exact (Exact set); the search refuted every other move, so its
// Score is a fail-soft upper bound on its value, no better than the best.
// Among equally good moves, the one returned can vary between runs with more
// than one worker. A depth below one searches to depth one.
func BestMove(pos Position, depth int, cfg Config) (best Move, all []Move, err error) {
	depth = max(depth, 1)
	cfg.RootWindow = nil
	cfg.SerialDepth = min(cfg.SerialDepth, depth-1)
	res, err := Search(pos, depth, cfg)
	if err != nil {
		return Move{}, nil, err
	}
	if res.Move < 0 {
		return Move{}, nil, ErrNoMoves
	}
	all = make([]Move, len(res.Scores))
	for i, v := range res.Scores {
		all[i] = Move{Index: i, Score: v, Exact: i == res.Move}
	}
	return all[res.Move], all, nil
}

// BestLine returns the principal variation from pos to the given depth as a
// sequence of child indices (natural move order at each step), by repeatedly
// selecting the best move with parallel ER. The line has up to depth moves;
// it stops early at terminal positions.
func BestLine(pos Position, depth int, cfg Config) ([]Move, error) {
	var line []Move
	cur := pos
	for d := depth; d > 0; d-- {
		best, _, err := BestMove(cur, d, cfg)
		if errors.Is(err, ErrNoMoves) {
			break
		}
		if err != nil {
			return line, err
		}
		line = append(line, best)
		cur = cur.Children()[best.Index]
	}
	return line, nil
}

// IterativeDeepening runs serial iterative deepening with aspiration windows
// (a serial application of Baudet's §4.1 idea) up to maxDepth, returning the
// per-depth values. The final entry is the exact value at maxDepth.
func IterativeDeepening(pos Position, maxDepth int, delta Value, order Orderer) []DeepeningResult {
	s := serial.Searcher{Order: order}
	return s.IterativeDeepening(pos, serial.DeepeningOptions{MaxDepth: maxDepth, Delta: delta})
}

// DeepeningResult reports one iteration of IterativeDeepening.
type DeepeningResult = serial.DeepeningResult

package checkers

import (
	"bytes"
	"testing"
)

// FuzzGamePlay drives random checkers games and verifies the rules
// invariants: piece counts never grow, captures remove exactly the jumped
// pieces, kings only appear by promotion, and every generated move applies
// cleanly. At every ply, Terminal's move-existence scan must agree with the
// move generator, across forced captures, multi-jumps, kings and blocked men.
// Games rarely reach a position without moves, so the scan is also checked
// on each piece of either side left alone on the board with every opposing
// piece: a lone piece is often blocked, and its one answer rests on its own
// steps and captures.
func FuzzGamePlay(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5, 5})
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{3, 1, 4, 1, 5, 9, 2, 6}, 25)) // a whole game: kings, multi-jumps, no move left
	f.Add([]byte("000100000$000010220"))                    // ply 19: a lone White man on the left edge, blocked
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTerminal := func(ply int, b Board) {
			if n := len(b.Moves()); b.Terminal() != (n == 0) {
				t.Fatalf("ply %d: Terminal() = %v with %d moves\n%s", ply, b.Terminal(), n, b)
			}
		}
		b := Start()
		for ply := 0; ; ply++ {
			moves := b.Moves()
			checkTerminal(ply, b)
			swapped := Board{
				ownMen: b.oppMen, ownKings: b.oppKings,
				oppMen: b.ownMen, oppKings: b.ownKings,
				blackToMove: !b.blackToMove,
			}
			for _, side := range []Board{b, swapped} {
				for own := side.ownMen | side.ownKings; own != 0; own &= own - 1 {
					lone := side
					lone.ownMen &= own & -own
					lone.ownKings &= own & -own
					checkTerminal(ply, lone)
				}
			}
			if len(moves) == 0 || ply == len(data) {
				break
			}
			mv := moves[int(data[ply])%len(moves)]
			if len(mv.Path) < 2 {
				t.Fatalf("degenerate move %v", mv)
			}
			om, ok, pm, pk := b.Pieces()
			before := om + ok + pm + pk
			nb := b.Apply(mv)
			nm, nk, qm, qk := nb.Pieces()
			after := nm + nk + qm + qk
			if after != before-len(mv.Captures) {
				t.Fatalf("pieces %d -> %d with %d captures: %v\n%s", before, after, len(mv.Captures), mv, b)
			}
			// The mover's piece count is preserved (now on the opp side).
			if qm+qk != om+ok {
				t.Fatalf("mover's pieces changed: %d -> %d", om+ok, qm+qk)
			}
			if nb.Hash() == b.Hash() {
				t.Fatalf("hash unchanged by move %v", mv)
			}
			b = nb
		}
	})
}

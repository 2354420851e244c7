package checkers

import (
	"bytes"
	"testing"

	"ertree/internal/game"
)

// FuzzGamePlay drives random checkers games and verifies the rules
// invariants: piece counts never grow, captures remove exactly the jumped
// pieces, kings only appear by promotion, and every generated move applies
// cleanly. At every ply, Terminal's move-existence scan must agree with the
// move generator, across forced captures, multi-jumps, kings and blocked men.
// Games rarely reach a position without moves, so the scan is also checked
// on each piece of either side left alone on the board with every opposing
// piece: a lone piece is often blocked, and its one answer rests on its own
// steps and captures. Children, generated straight from the bitboards, must
// be Apply over Moves, duplicates from two jump paths included, and the
// children the expander writes into a slab must be Children's: the same
// count, order, boards, hashes and values.
func FuzzGamePlay(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5, 5})
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{3, 1, 4, 1, 5, 9, 2, 6}, 25)) // a whole game: kings, multi-jumps, no move left
	f.Add([]byte("000100000$000010220"))                    // ply 19: a lone White man on the left edge, blocked
	// Ply 7: one man has two double-jump paths.
	f.Add([]byte{0xad, 0xd4, 0xb2, 0xd7, 0x64, 0x1a, 0x62, 0x00})
	// Ply 6: a jump ends on the back rank and promotes.
	f.Add([]byte{0xf4, 0x34, 0x19, 0x2f, 0xa5, 0x4f, 0x50})
	// Ply 11: two jump paths give the same board.
	f.Add([]byte{0x4b, 0xeb, 0x31, 0xd7, 0xd6, 0x61, 0x7a, 0x22, 0x79, 0xff, 0x20, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTerminal := func(ply int, b Board) {
			if n := len(b.Moves()); b.Terminal() != (n == 0) {
				t.Fatalf("ply %d: Terminal() = %v with %d moves\n%s", ply, b.Terminal(), n, b)
			}
		}
		var slab game.Slab
		b := Start()
		for ply := 0; ; ply++ {
			moves := b.Moves()
			checkTerminal(ply, b)
			checkChildren(t, ply, b, moves, &slab)
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

// checkChildren compares b's children with Apply over moves, and the
// children written into slab with Children's, then releases them.
func checkChildren(t *testing.T, ply int, b Board, moves []Move, slab *game.Slab) {
	t.Helper()
	m := slab.Mark()
	defer slab.Release(m)
	want := b.Children()
	got := b.AppendChildren(nil, slab)
	if len(want) != len(moves) || len(got) != len(moves) {
		t.Fatalf("ply %d: %d moves, Children %d, expander %d\n%s", ply, len(moves), len(want), len(got), b)
	}
	for i, mv := range moves {
		a, w, g := b.Apply(mv), want[i].(Board), got[i].(*Board)
		if w != a {
			t.Fatalf("ply %d: child %d is %+v, Apply(%v) is %+v\n%s", ply, i, w, mv, a, b)
		}
		if *g != w || g.Hash() != w.Hash() || got[i].Value() != w.Value() {
			t.Fatalf("ply %d: child %d: expander %+v, Children %+v\n%s", ply, i, *g, w, b)
		}
	}
}

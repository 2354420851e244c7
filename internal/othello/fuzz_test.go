package othello

import (
	"testing"

	"ertree/internal/game"
)

// FuzzGamePlay drives random move sequences (decoded from fuzz data) through
// the rules and checks the structural invariants after every move. At every
// ply the children the expander writes into a slab must be Children's: the
// same count, order, boards, hashes and values.
func FuzzGamePlay(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{7, 7, 7, 7, 0, 0, 3, 1})
	f.Add([]byte{})
	f.Add([]byte{0x45, 0xa8, 0x38, 0x36, 0xf7, 0x5b, 0xd2, 0x64, 0x00}) // ply 8: the side to move must pass
	f.Fuzz(func(t *testing.T, data []byte) {
		var slab game.Slab
		b := Start()
		for _, pick := range data {
			checkExpander(t, b, &slab)
			if b.Terminal() {
				break
			}
			moves := b.Moves()
			var nb Board
			var ok bool
			if len(moves) == 0 {
				nb, ok = b.Play(-1)
			} else {
				nb, ok = b.Play(moves[int(pick)%len(moves)])
			}
			if !ok {
				t.Fatalf("engine-produced move rejected on\n%s", b)
			}
			own, opp := nb.Discs()
			po, pp := b.Discs()
			total, prev := own+opp, po+pp
			if len(moves) == 0 {
				if total != prev {
					t.Fatalf("pass changed disc count")
				}
			} else if total != prev+1 {
				t.Fatalf("disc count %d -> %d", prev, total)
			}
			if total > 64 {
				t.Fatalf("more than 64 discs")
			}
			if v := nb.Value(); v <= -(1<<30) || v >= 1<<30 {
				t.Fatalf("evaluator out of range: %d", v)
			}
			// Hash stability: recomputing the hash yields the same value.
			if nb.Hash() != nb.Hash() {
				t.Fatal("hash not a pure function")
			}
			b = nb
		}
		checkExpander(t, b, &slab)
	})
}

// checkExpander compares b's children written into slab with Children's,
// then releases them.
func checkExpander(t *testing.T, b Board, slab *game.Slab) {
	t.Helper()
	m := slab.Mark()
	defer slab.Release(m)
	want := b.Children()
	got := b.AppendChildren(nil, slab)
	if len(got) != len(want) {
		t.Fatalf("expander wrote %d children, Children returned %d\n%s", len(got), len(want), b)
	}
	for i := range want {
		g, w := got[i].(*Board), want[i].(Board)
		if *g != w || g.Hash() != w.Hash() || got[i].Value() != w.Value() {
			t.Fatalf("child %d: expander %+v, Children %+v\n%s", i, *g, w, b)
		}
	}
}

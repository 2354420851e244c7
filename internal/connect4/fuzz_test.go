package connect4

import (
	"testing"

	"ertree/internal/game"
)

// FuzzGamePlay plays random games decoded from fuzz data and checks the
// rules invariants after every drop. At every ply the children the expander
// writes into a slab must be Children's: the same count, order, boards,
// hashes and values.
func FuzzGamePlay(f *testing.F) {
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var slab game.Slab
		b := New()
		for _, pick := range data {
			checkExpander(t, b, &slab)
			if b.Terminal() {
				if b.Children() != nil {
					t.Fatal("terminal position has children")
				}
				break
			}
			kids := b.Children()
			if len(kids) == 0 {
				t.Fatalf("non-terminal position without children:\n%s", b)
			}
			nb := kids[int(pick)%len(kids)].(Board)
			if nb.Ply() != b.Ply()+1 {
				t.Fatalf("ply %d -> %d", b.Ply(), nb.Ply())
			}
			if nb.all&^fullMask != 0 {
				t.Fatal("stone on a padding bit")
			}
			if nb.own&^nb.all != 0 {
				t.Fatal("own stones not a subset of all stones")
			}
			if nb.Hash() == b.Hash() {
				t.Fatal("hash unchanged by a drop")
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

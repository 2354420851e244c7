package serial

import (
	"math/rand"
	"testing"

	"ertree/internal/game"
	"ertree/internal/gtree"
	"ertree/internal/randtree"
)

func TestPVSExactRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(515))
	specs := []gtree.RandomSpec{
		{MinDegree: 1, MaxDegree: 4, MinDepth: 2, MaxDepth: 5, ValueRange: 50},
		{MinDegree: 2, MaxDegree: 2, MinDepth: 6, MaxDepth: 6, ValueRange: 3},
		{MinDegree: 1, MaxDegree: 3, MinDepth: 1, MaxDepth: 4, ValueRange: 1000},
	}
	for si, spec := range specs {
		for i := 0; i < 80; i++ {
			root := spec.Generate(rng)
			h := root.Height()
			var s Searcher
			want := s.Negmax(root, h)
			if got := s.PVS(root, h, game.FullWindow()); got != want {
				t.Fatalf("spec %d tree %d: PVS=%d want %d\n%s", si, i, got, want, root)
			}
		}
	}
}

func TestPVSWindowedContract(t *testing.T) {
	rng := rand.New(rand.NewSource(516))
	spec := gtree.RandomSpec{MinDegree: 1, MaxDegree: 4, MinDepth: 2, MaxDepth: 4, ValueRange: 30}
	for i := 0; i < 150; i++ {
		root := spec.Generate(rng)
		h := root.Height()
		var o Searcher
		exact := o.Negmax(root, h)
		a := game.Value(rng.Intn(61) - 30)
		b := a + game.Value(rng.Intn(20)+1)
		var s Searcher
		w := game.Window{Alpha: a, Beta: b}
		if got := s.PVS(root, h, w); !w.FailSoft(got, exact) {
			t.Fatalf("exact %d window (%d,%d) got %d", exact, a, b, got)
		}
	}
}

func TestPVSCheaperOnOrderedTrees(t *testing.T) {
	// On a strongly ordered tree PVS must examine no more nodes than plain
	// alpha-beta (null windows verify cheaply when the first move is best).
	tr := randtree.Marsland(99, 4, 7)
	order := game.StaticOrder{MaxPly: 5}
	var ab, pvs game.Stats
	s1 := Searcher{Order: order, Stats: &ab}
	v1 := s1.AlphaBeta(tr.Root(), 7, game.FullWindow())
	s2 := Searcher{Order: order, Stats: &pvs}
	v2 := s2.PVS(tr.Root(), 7, game.FullWindow())
	if v1 != v2 {
		t.Fatalf("values differ: %d vs %d", v1, v2)
	}
	t.Logf("alpha-beta nodes %d, PVS nodes %d", ab.Generated.Load(), pvs.Generated.Load())
	if pvs.Generated.Load() > ab.Generated.Load()*11/10 {
		t.Errorf("PVS examined %d nodes vs alpha-beta %d (+>10%%) on an ordered tree",
			pvs.Generated.Load(), ab.Generated.Load())
	}
}

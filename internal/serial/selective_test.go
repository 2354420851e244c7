package serial

import (
	"math/rand"
	"testing"

	"ertree/internal/game"
	"ertree/internal/gtree"
)

func TestSelectiveSortAgreesWithNegmax(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for _, noise := range []game.Value{0, 10, 500} {
		spec := gtree.RandomSpec{
			MinDegree: 1, MaxDegree: 4, MinDepth: 2, MaxDepth: 5,
			ValueRange: 60, StaticNoise: noise,
		}
		for i := 0; i < 60; i++ {
			root := spec.Generate(rng)
			h := root.Height()
			var plain Searcher
			want := plain.Negmax(root, h)
			s := Searcher{Order: game.StaticOrder{MaxPly: 4}}
			if got := s.AlphaBetaSelectiveSort(root, h, game.FullWindow()); got != want {
				t.Fatalf("noise %d tree %d: selective = %d, want %d\n%s",
					noise, i, got, want, root)
			}
		}
	}
}

func TestSelectiveSortReducesSortEvals(t *testing.T) {
	// On a perfectly-ordered informed tree, the selective variant must
	// apply strictly fewer ordering evaluations than full sorting while
	// returning the same value.
	rng := rand.New(rand.NewSource(9))
	spec := gtree.RandomSpec{
		MinDegree: 3, MaxDegree: 3, MinDepth: 5, MaxDepth: 5,
		ValueRange: 1000, StaticNoise: 0,
	}
	root := spec.Generate(rng)
	order := game.StaticOrder{MaxPly: 4}
	var full, sel game.Stats
	sf := Searcher{Order: order, Stats: &full}
	v1 := sf.AlphaBeta(root, 5, game.FullWindow())
	ss := Searcher{Order: order, Stats: &sel}
	v2 := ss.AlphaBetaSelectiveSort(root, 5, game.FullWindow())
	if v1 != v2 {
		t.Fatalf("values differ: %d vs %d", v1, v2)
	}
	if sel.SortEvals.Load() >= full.SortEvals.Load() {
		t.Errorf("selective sorting used %d sort evals, full used %d",
			sel.SortEvals.Load(), full.SortEvals.Load())
	}
	// On a perfectly ordered tree, skipping sorts at 1/3-nodes must not
	// increase the node count (the order is already best-first).
	if sel.Generated.Load() > full.Generated.Load() {
		t.Errorf("selective sorting generated more nodes (%d > %d) on a best-first tree",
			sel.Generated.Load(), full.Generated.Load())
	}
}

func TestExamineAgreesWithWindowedSearch(t *testing.T) {
	// Examine must produce a value consistent with alpha-beta under the
	// same window: exact inside, bound-correct outside.
	rng := rand.New(rand.NewSource(71))
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
		if got := s.Examine(root, h, w); !w.FailSoft(got, exact) {
			t.Fatalf("tree %d: exact %d window (%d,%d) got %d", i, exact, a, b, got)
		}
	}
}

package serial

import (
	"math/rand"
	"testing"

	"ertree/internal/game"
	"ertree/internal/gtree"
	"ertree/internal/randtree"
	"ertree/internal/tt"
)

// deepNegmax is an independent oracle (does not share code with Searcher).
func deepNegmax(n *gtree.Node) game.Value { return n.Negmax() }

func TestNegmaxFixtures(t *testing.T) {
	cases := []struct {
		name string
		root *gtree.Node
		want game.Value
	}{
		{"figure2-shallow", gtree.Figure2Shallow(), 7},
		{"figure2-deep", gtree.Figure2Deep(), 7},
		{"figure6", gtree.Figure6Tree(), 11},
		{"figure7", gtree.Figure7Tree(), 13},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var s Searcher
			got := s.Negmax(c.root, c.root.Height())
			if got != c.want {
				t.Fatalf("negmax = %d, want %d\ntree:\n%s", got, c.want, c.root)
			}
			if got != deepNegmax(c.root) {
				t.Fatalf("negmax disagrees with gtree oracle")
			}
		})
	}
}

func TestAlphaBetaPrunesFigure2(t *testing.T) {
	// Both Figure 2 trees contain a leaf labeled "pruned" that alpha-beta
	// must never evaluate: its value (-100) would change the root value to
	// 100 if it leaked into the search result.
	for _, tc := range []struct {
		name string
		root *gtree.Node
	}{
		{"shallow", gtree.Figure2Shallow()},
		{"deep", gtree.Figure2Deep()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stats game.Stats
			s := Searcher{Stats: &stats}
			got := s.AlphaBeta(tc.root, tc.root.Height(), game.FullWindow())
			if got != 7 {
				t.Fatalf("alpha-beta = %d, want 7", got)
			}
			var full game.Stats
			fs := Searcher{Stats: &full}
			fs.Negmax(tc.root, tc.root.Height())
			if stats.Evaluated.Load() >= full.Evaluated.Load() {
				t.Fatalf("alpha-beta evaluated %d leaves, negmax %d: expected pruning",
					stats.Evaluated.Load(), full.Evaluated.Load())
			}
			if stats.Cutoffs.Load() == 0 {
				t.Fatalf("expected at least one cutoff")
			}
		})
	}
}

func TestDeepCutoffOnlyWithDeepVariant(t *testing.T) {
	// On Figure 2(b), alpha-beta with deep cutoffs must prune node D's
	// second child, while the no-deep variant may not (the bound needed
	// comes from three levels up).
	withDeep := func() int64 {
		var st game.Stats
		s := Searcher{Stats: &st}
		s.AlphaBeta(gtree.Figure2Deep(), 4, game.FullWindow())
		return st.Evaluated.Load()
	}()
	noDeep := func() int64 {
		var st game.Stats
		s := Searcher{Stats: &st}
		s.AlphaBetaNoDeep(gtree.Figure2Deep(), 4, game.Inf)
		return st.Evaluated.Load()
	}()
	if withDeep >= noDeep {
		t.Fatalf("deep variant evaluated %d leaves, no-deep %d: deep cutoffs should save work here",
			withDeep, noDeep)
	}
}

// TestAllAlgorithmsAgreeRandom is the central soundness property: on random
// irregular trees, alpha-beta (both variants) and serial ER must return the
// exact negmax value.
func TestAllAlgorithmsAgreeRandom(t *testing.T) {
	specs := []gtree.RandomSpec{
		{MinDegree: 1, MaxDegree: 3, MinDepth: 1, MaxDepth: 4, ValueRange: 10},
		{MinDegree: 1, MaxDegree: 4, MinDepth: 2, MaxDepth: 5, ValueRange: 100},
		{MinDegree: 2, MaxDegree: 2, MinDepth: 6, MaxDepth: 6, ValueRange: 5}, // many ties
		{MinDegree: 1, MaxDegree: 6, MinDepth: 1, MaxDepth: 3, ValueRange: 1000},
		{MinDegree: 3, MaxDegree: 3, MinDepth: 4, MaxDepth: 4, ValueRange: 2}, // heavy ties
	}
	rng := rand.New(rand.NewSource(20260706))
	for si, spec := range specs {
		for i := 0; i < 120; i++ {
			root := spec.Generate(rng)
			h := root.Height()
			want := deepNegmax(root)
			var s Searcher
			if got := s.Negmax(root, h); got != want {
				t.Fatalf("spec %d tree %d: Negmax=%d want %d\n%s", si, i, got, want, root)
			}
			if got := s.AlphaBeta(root, h, game.FullWindow()); got != want {
				t.Fatalf("spec %d tree %d: AlphaBeta=%d want %d\n%s", si, i, got, want, root)
			}
			if got := s.AlphaBetaNoDeep(root, h, game.Inf); got != want {
				t.Fatalf("spec %d tree %d: AlphaBetaNoDeep=%d want %d\n%s", si, i, got, want, root)
			}
			if got := s.ER(root, h, game.FullWindow()); got != want {
				t.Fatalf("spec %d tree %d: ER=%d want %d\n%s", si, i, got, want, root)
			}
		}
	}
}

// TestAlgorithmsAgreeWithStaticOrder repeats the agreement property with a
// static-sort orderer, including informed and misleading interior values.
func TestAlgorithmsAgreeWithStaticOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, noise := range []game.Value{0, 5, 1000} {
		spec := gtree.RandomSpec{
			MinDegree: 1, MaxDegree: 4, MinDepth: 2, MaxDepth: 5,
			ValueRange: 50, StaticNoise: noise,
		}
		for i := 0; i < 80; i++ {
			root := spec.Generate(rng)
			h := root.Height()
			want := deepNegmax(root)
			s := Searcher{Order: game.StaticOrder{MaxPly: 3}}
			if got := s.AlphaBeta(root, h, game.FullWindow()); got != want {
				t.Fatalf("noise %d tree %d: AlphaBeta=%d want %d", noise, i, got, want)
			}
			if got := s.ER(root, h, game.FullWindow()); got != want {
				t.Fatalf("noise %d tree %d: ER=%d want %d", noise, i, got, want)
			}
		}
	}
}

// TestFailSoftBounds verifies the fail-soft contract of AlphaBeta and ER:
// searched with an arbitrary window, the result is exact inside the window,
// an upper bound when it fails low, and a lower bound when it fails high.
func TestFailSoftBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	spec := gtree.RandomSpec{MinDegree: 1, MaxDegree: 4, MinDepth: 2, MaxDepth: 4, ValueRange: 30}
	for i := 0; i < 200; i++ {
		root := spec.Generate(rng)
		h := root.Height()
		exact := deepNegmax(root)
		a := game.Value(rng.Intn(61) - 30)
		b := game.Value(rng.Intn(61) - 30)
		if a > b {
			a, b = b, a
		}
		if a == b {
			b++
		}
		w := game.Window{Alpha: a, Beta: b}
		var s Searcher
		if got := s.AlphaBeta(root, h, w); !w.FailSoft(got, exact) {
			t.Fatalf("AlphaBeta: window (%d,%d) exact %d got %d", a, b, exact, got)
		}
		if got := s.ER(root, h, w); !w.FailSoft(got, exact) {
			t.Fatalf("ER: window (%d,%d) exact %d got %d", a, b, exact, got)
		}
	}
}

// TestERRefutationAccounting sanity-checks ER's refutation counters.
func TestERRefutationAccounting(t *testing.T) {
	var st game.Stats
	s := Searcher{Stats: &st}
	root := gtree.Figure7Tree()
	if got := s.ER(root, root.Height(), game.FullWindow()); got != 13 {
		t.Fatalf("ER on figure 7 = %d, want 13", got)
	}
	snap := st.Snapshot()
	if snap.Refutations == 0 {
		t.Fatalf("expected refutation attempts, got none")
	}
	if snap.RefuteFails > snap.Refutations {
		t.Fatalf("failed refutations (%d) exceed attempts (%d)", snap.RefuteFails, snap.Refutations)
	}
}

// TestERAllocsPerGeneratedNode pins the allocation rate of the serial
// searches' one child path: the random tree writes its children into the
// search's pooled store (game.Expander), and records, child lists and boards
// are reused in stack order, so once the store is warm a search allocates
// nothing per generated node. It covers serial ER, the scout with and
// without a table, its root entry (one score slice per call) and
// alpha-beta. A search with a table builds a fresh one per run, so every run
// searches the same tree. The bound of 0.01 leaves room only for the table,
// the score slice and a store the garbage collector dropped from the pool
// during the measurement.
func TestERAllocsPerGeneratedNode(t *testing.T) {
	root := (&randtree.Tree{Seed: 0xA110C, Degree: 4, Depth: 8, ValueRange: 10000}).Root()
	full := game.FullWindow()
	withTable := func(s *Searcher) *Searcher {
		m := WithTable(*s, tt.NewLockFree(12), new(tt.Counts))
		return &m
	}
	for _, tc := range []struct {
		name   string
		search func(s *Searcher)
	}{
		{"er", func(s *Searcher) { s.ER(root, 8, full) }},
		{"er-table", func(s *Searcher) { withTable(s).ER(root, 8, full) }},
		{"pvs", func(s *Searcher) { s.PVS(root, 8, full) }},
		{"pvs-table", func(s *Searcher) { withTable(s).PVS(root, 8, full) }},
		{"pvs-root-table", func(s *Searcher) { PVSRoot(withTable(s), root, 8, full, nil, nil) }},
		{"alphabeta", func(s *Searcher) { s.AlphaBeta(root, 8, full) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var st game.Stats
			tc.search(&Searcher{Stats: &st})
			generated := float64(st.Generated.Load())

			var s Searcher
			allocs := testing.AllocsPerRun(20, func() { tc.search(&s) })
			if perNode := allocs / generated; perNode > 0.01 {
				t.Fatalf("%s made %.1f allocations for %.0f generated nodes (%.4f per node), want at most 0.01",
					tc.name, allocs, generated, perNode)
			}
		})
	}
}

// TestDepthLimit verifies that depth-limited searches evaluate frontier
// nodes statically rather than descending.
func TestDepthLimit(t *testing.T) {
	// Interior static values deliberately disagree with subtree values.
	inner := gtree.N(gtree.L(100), gtree.L(200)).WithStatic(-7)
	root := gtree.N(inner)
	var s Searcher
	if got := s.Negmax(root, 1); got != 7 {
		t.Fatalf("depth-1 negmax = %d, want 7 (negated static of frontier child)", got)
	}
	if got := s.AlphaBeta(root, 1, game.FullWindow()); got != 7 {
		t.Fatalf("depth-1 alpha-beta = %d, want 7", got)
	}
	if got := s.ER(root, 1, game.FullWindow()); got != 7 {
		t.Fatalf("depth-1 ER = %d, want 7", got)
	}
	if got := s.Negmax(root, 2); got != 100 {
		t.Fatalf("depth-2 negmax = %d, want 100", got)
	}
}

// TestBestFirstOrderVisitsMinimalTree: with children in best-first order,
// alpha-beta evaluates exactly the minimal number of leaves on complete
// trees (§2.2).
func TestBestFirstOrderVisitsMinimalTree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, tc := range []struct{ d, h int }{{2, 2}, {2, 4}, {3, 2}, {3, 3}, {4, 3}, {2, 6}, {5, 2}} {
		root := gtree.Complete(tc.d, tc.h, func(i int) game.Value {
			return game.Value(rng.Intn(2001) - 1000)
		})
		root.SortByNegmax()
		var st game.Stats
		s := Searcher{Stats: &st}
		want := deepNegmax(root)
		if got := s.AlphaBeta(root, tc.h, game.FullWindow()); got != want {
			t.Fatalf("d=%d h=%d: value %d want %d", tc.d, tc.h, got, want)
		}
		wantLeaves := int64(gtree.MinimalLeafCount(tc.d, tc.h))
		if st.Evaluated.Load() != wantLeaves {
			t.Errorf("d=%d h=%d: alpha-beta evaluated %d leaves, minimal tree has %d",
				tc.d, tc.h, st.Evaluated.Load(), wantLeaves)
		}
	}
}

func TestIterativeDeepeningInternal(t *testing.T) {
	// Degenerate inputs and narrow aspiration windows.
	var s Searcher
	if out := s.IterativeDeepening(gtree.L(3), DeepeningOptions{MaxDepth: 0}); out != nil {
		t.Fatal("MaxDepth 0 must return nil")
	}
	rng := rand.New(rand.NewSource(321))
	spec := gtree.RandomSpec{MinDegree: 2, MaxDegree: 3, MinDepth: 4, MaxDepth: 4, ValueRange: 20}
	for i := 0; i < 15; i++ {
		root := spec.Generate(rng)
		out := s.IterativeDeepening(root, DeepeningOptions{MaxDepth: 4, Delta: 2})
		if len(out) != 4 {
			t.Fatalf("%d iterations", len(out))
		}
		for _, r := range out {
			var o Searcher
			if want := o.Negmax(root, r.Depth); r.Value != want {
				t.Fatalf("depth %d: %d want %d (researches %d)", r.Depth, r.Value, want, r.Researches)
			}
		}
	}
}

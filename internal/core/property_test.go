package core

import (
	"runtime"
	"testing"

	"ertree/internal/checkers"
	"ertree/internal/connect4"
	"ertree/internal/game"
	"ertree/internal/othello"
	"ertree/internal/serial"
	"ertree/internal/tt"
	"ertree/internal/ttt"
)

// TestSearchMatchesNegamaxWithTT is the exactness property test for the real
// runtime under full concurrency: for every game and depth, parallel Search
// with many workers and a shared transposition table must return exactly the
// serial negamax value. Run with -race (as CI does) this also exercises the
// per-worker stats shards, the batched heap pushes, and the concurrent
// TT probe/store paths for data races.
func TestSearchMatchesNegamaxWithTT(t *testing.T) {
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	cases := []struct {
		name   string
		pos    game.Position
		depths []int
	}{
		{"ttt", ttt.New(), []int{4, 6, 9}},
		{"connect4", connect4.New(), []int{4, 6, 8}},
		{"othello", othello.Start(), []int{3, 5}},
		{"checkers", checkers.Start(), []int{4, 6}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for _, depth := range c.depths {
				oracle := (&serial.Searcher{}).Negmax(c.pos, depth)
				table := tt.NewDefault(14, 8)
				opt := DefaultOptions()
				opt.Workers = workers
				opt.SerialDepth = depth / 2
				opt.Table = table
				res, err := Search(c.pos, depth, opt)
				if err != nil {
					t.Fatalf("depth %d: %v", depth, err)
				}
				if res.Value != oracle {
					t.Errorf("depth %d: Search = %d, serial negamax = %d",
						depth, res.Value, oracle)
				}
				if res.SerialTasks > 0 && res.TTProbes == 0 {
					t.Errorf("depth %d: %d serial tasks ran but the table was never probed",
						depth, res.SerialTasks)
				}
				if res.TTProbes > 0 && res.TTStores == 0 && res.TTCutoffs != res.TTProbes {
					t.Errorf("depth %d: probes %d, cutoffs %d, but nothing stored",
						depth, res.TTProbes, res.TTCutoffs)
				}
			}
		})
	}
}

// TestSearchTableReuseAcrossRuns: a second identical search over a warm table
// must still be exact and must observe hits from the first run's stores.
func TestSearchTableReuseAcrossRuns(t *testing.T) {
	pos := connect4.New()
	const depth = 8
	oracle := (&serial.Searcher{}).Negmax(pos, depth)
	table := tt.NewDefault(14, 8)
	opt := DefaultOptions()
	opt.Workers = 4
	opt.SerialDepth = 4
	opt.Table = table

	first, err := Search(pos, depth, opt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Search(pos, depth, opt)
	if err != nil {
		t.Fatal(err)
	}
	if first.Value != oracle || second.Value != oracle {
		t.Fatalf("values %d, %d; want %d", first.Value, second.Value, oracle)
	}
	if first.TTStores == 0 {
		t.Fatal("cold run stored nothing")
	}
	if second.TTHits == 0 {
		t.Error("warm run over a populated table saw no hits")
	}
}

// TestArenaReleasedAfterSearch: once Search returns, no node allocated during
// the run remains reachable — the arena blocks are zeroed (severing every
// position, parent, kid and move reference) and the state drops its block
// list, so retained pointers cannot pin the tree or its positions for the GC.
// The search spans at least three of the arena's growing blocks, so full
// blocks and the partly used newest one are all checked.
func TestArenaReleasedAfterSearch(t *testing.T) {
	var blocks [][]node
	var allocated int
	testStateHook = func(s *state) {
		blocks = append([][]node(nil), s.arena.blocks...)
		allocated = s.arena.allocated()
	}
	defer func() { testStateHook = nil }()

	opt := DefaultOptions()
	opt.Workers = 2
	opt.SerialDepth = 3
	if _, err := Search(ttt.New(), 7, opt); err != nil {
		t.Fatal(err)
	}
	if allocated == 0 || len(blocks) < 3 {
		t.Fatalf("search allocated %d arena nodes in %d blocks, want at least 3 blocks", allocated, len(blocks))
	}
	for bi, blk := range blocks {
		for ni := range blk {
			n := &blk[ni]
			if n.pos != nil || n.parent != nil || n.kids != nil || n.moves != nil {
				t.Fatalf("block %d node %d still holds references after release", bi, ni)
			}
			if n.seq != 0 || n.value != 0 || n.done || n.expanded {
				t.Fatalf("block %d node %d not zeroed after release", bi, ni)
			}
		}
	}
}

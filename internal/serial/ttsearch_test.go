package serial

import (
	"math/rand"
	"testing"

	"ertree/internal/connect4"
	"ertree/internal/game"
	"ertree/internal/othello"
	"ertree/internal/tt"
	"ertree/internal/ttt"
)

// TestTTSearchExactConnect4: alpha-beta with a transposition table returns
// the exact negmax value on transposition-rich Connect Four positions.
func TestTTSearchExactConnect4(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for trial := 0; trial < 10; trial++ {
		b := connect4.New()
		for i := 0; i < rng.Intn(10) && !b.Terminal(); i++ {
			kids := b.Children()
			b = kids[rng.Intn(len(kids))].(connect4.Board)
		}
		depth := 6
		var plain Searcher
		want := plain.Negmax(b, depth)
		table := tt.New(14)
		var s Searcher
		if got := s.AlphaBetaTT(b, depth, game.FullWindow(), table); got != want {
			t.Fatalf("trial %d: TT search %d, negmax %d\n%s", trial, got, want, b)
		}
		if table.Hits == 0 {
			t.Errorf("trial %d: no transposition hits on connect4 at depth %d", trial, depth)
		}
	}
}

// TestTTSearchSavesNodes: the table must reduce node generation on a deep
// Connect Four search.
func TestTTSearchSavesNodes(t *testing.T) {
	b := connect4.New()
	depth := 8
	var noTT, withTT game.Stats
	s1 := Searcher{Stats: &noTT}
	v1 := s1.AlphaBeta(b, depth, game.FullWindow())
	s2 := Searcher{Stats: &withTT}
	v2 := s2.AlphaBetaTT(b, depth, game.FullWindow(), tt.New(18))
	if v1 != v2 {
		t.Fatalf("values differ: %d vs %d", v1, v2)
	}
	if withTT.Generated.Load() >= noTT.Generated.Load() {
		t.Errorf("TT did not save nodes: %d vs %d", withTT.Generated.Load(), noTT.Generated.Load())
	}
	t.Logf("nodes without TT: %d; with TT: %d", noTT.Generated.Load(), withTT.Generated.Load())
}

// TestTTSearchOthelloAndTTT: same-value property on the other hashable games.
func TestTTSearchOthelloAndTTT(t *testing.T) {
	o := othello.O1()
	var s Searcher
	want := s.Negmax(o, 4)
	if got := s.AlphaBetaTT(o, 4, game.FullWindow(), tt.New(14)); got != want {
		t.Fatalf("othello: %d want %d", got, want)
	}
	x := ttt.New()
	if got := s.AlphaBetaTT(x, 9, game.FullWindow(), tt.New(16)); got != 0 {
		t.Fatalf("ttt with TT: %d want 0", got)
	}
}

// TestTTSearchNilTableAndUnhashable: graceful degradation.
func TestTTSearchNilTableAndUnhashable(t *testing.T) {
	b := connect4.New()
	var s Searcher
	want := s.Negmax(b, 5)
	if got := s.AlphaBetaTT(b, 5, game.FullWindow(), nil); got != want {
		t.Fatalf("nil table: %d want %d", got, want)
	}
}

// TestTTSearchWindowed: fail-soft contract holds with a table.
func TestTTSearchWindowed(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	b := connect4.New().MustDrop(3, 3, 2)
	depth := 5
	var s Searcher
	exact := s.Negmax(b, depth)
	for i := 0; i < 30; i++ {
		a := game.Value(rng.Intn(201) - 100)
		bb := a + game.Value(rng.Intn(100)+1)
		table := tt.New(12)
		w := game.Window{Alpha: a, Beta: bb}
		if got := s.AlphaBetaTT(b, depth, w, table); !w.FailSoft(got, exact) {
			t.Fatalf("exact %d window (%d,%d) got %d", exact, a, bb, got)
		}
	}
}

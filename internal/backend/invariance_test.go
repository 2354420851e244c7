package backend_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"ertree/internal/backend"
	"ertree/internal/connect4"
	"ertree/internal/game"
	"ertree/internal/othello"
	"ertree/internal/randtree"
	"ertree/internal/tt"
	"ertree/internal/ttt"

	// The lazysmp backend registers itself on import, like callers do.
	_ "ertree/internal/lazysmp"
)

// negamax is the reference oracle every backend must agree with.
func negamax(pos game.Position, depth int) game.Value {
	kids := pos.Children()
	if depth == 0 || len(kids) == 0 {
		return pos.Value()
	}
	best := -game.Inf
	for _, k := range kids {
		if v := -negamax(k, depth-1); v > best {
			best = v
		}
	}
	return best
}

// invariancePosition is one (game, position, depth) case of the metamorphic
// suite.
type invariancePosition struct {
	name  string
	pos   game.Position
	depth int
}

func invariancePositions() []invariancePosition {
	tr := &randtree.Tree{Seed: 17, Degree: 4, Depth: 7, ValueRange: 10000}
	c4 := connect4.New().MustDrop(3, 2)
	return []invariancePosition{
		{"ttt/start", ttt.New(), 6},
		{"connect4/after-3-2", c4, 6},
		{"othello/start", othello.Start(), 4},
		{"randtree/7x4", tr.Root(), 6},
	}
}

// TestBackendInvariance is the metamorphic contract of the backend seam: the
// same position searched full-window by serial, er, and lazysmp at P ∈
// {1,2,4} must produce the identical exact value, and each reported move
// must prove that value against the negamax oracle. Run under -race this
// also exercises the lazysmp workers' shared-table traffic.
func TestBackendInvariance(t *testing.T) {
	for _, tc := range invariancePositions() {
		want := negamax(tc.pos, tc.depth)
		kids := tc.pos.Children()
		for _, name := range backend.Names() {
			for _, p := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/p%d", tc.name, name, p), func(t *testing.T) {
					be, err := backend.New(name, backend.Config{
						Workers:     p,
						SerialDepth: 2,
						Table:       tt.NewLockFree(14),
					})
					if err != nil {
						t.Fatal(err)
					}
					resp, err := be.Search(backend.Request{
						Pos:    tc.pos,
						Depth:  tc.depth,
						Window: game.FullWindow(),
					})
					if err != nil {
						t.Fatal(err)
					}
					if resp.Value != want {
						t.Fatalf("value %d, oracle %d", resp.Value, want)
					}
					if !resp.Exact {
						t.Fatal("full-window search not reported exact")
					}
					if resp.Move < 0 || resp.Move >= len(kids) {
						t.Fatalf("move %d out of range (%d children)", resp.Move, len(kids))
					}
					if got := -negamax(kids[resp.Move], tc.depth-1); got != want {
						t.Fatalf("move %d does not prove the value: child value %d, want %d",
							resp.Move, got, want)
					}
					if resp.Totals.Nodes == 0 {
						t.Fatal("search reported zero nodes")
					}
				})
			}
		}
	}
}

// TestBackendInvarianceNoTable repeats the value check without a
// transposition table, so a table-layer bug cannot mask a scheduler bug (and
// vice versa).
func TestBackendInvarianceNoTable(t *testing.T) {
	tc := invariancePosition{"randtree", (&randtree.Tree{Seed: 99, Degree: 4, Depth: 6, ValueRange: 5000}).Root(), 5}
	want := negamax(tc.pos, tc.depth)
	for _, name := range backend.Names() {
		be, err := backend.New(name, backend.Config{Workers: 2, SerialDepth: 2})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := be.Search(backend.Request{Pos: tc.pos, Depth: tc.depth, Window: game.FullWindow()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.Value != want {
			t.Fatalf("%s without table: value %d, oracle %d", name, resp.Value, want)
		}
	}
}

// TestBackendFailSoftWindows checks the fail-soft contract on every backend,
// with and without a table: under a window that excludes the true value, the
// returned value must be a correct bound on the oracle's value (upper when
// failing low, lower when failing high), and Exact must be false.
func TestBackendFailSoftWindows(t *testing.T) {
	tr := &randtree.Tree{Seed: 5, Degree: 4, Depth: 6, ValueRange: 10000}
	pos, depth := tr.Root(), 5
	truth := negamax(pos, depth)
	for _, name := range backend.Names() {
		for _, withTable := range []bool{false, true} {
			cfg := backend.Config{Workers: 2, SerialDepth: 2}
			if withTable {
				cfg.Table = tt.NewLockFree(12)
			}
			be, err := backend.New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// A window strictly above the true value (the search must fail
			// low with an upper bound on the truth), then one strictly below
			// (fail high with a lower bound).
			for _, w := range []game.Window{
				{Alpha: truth + 10, Beta: truth + 20},
				{Alpha: truth - 20, Beta: truth - 10},
			} {
				resp, err := be.Search(backend.Request{Pos: pos, Depth: depth, Window: w})
				if err != nil {
					t.Fatalf("%s table=%v window (%d,%d): %v", name, withTable, w.Alpha, w.Beta, err)
				}
				if resp.Exact {
					t.Fatalf("%s table=%v window (%d,%d): a search outside the window claims exactness",
						name, withTable, w.Alpha, w.Beta)
				}
				if !w.FailSoft(resp.Value, truth) {
					t.Fatalf("%s table=%v window (%d,%d): value %d is not a fail-soft result for %d",
						name, withTable, w.Alpha, w.Beta, resp.Value, truth)
				}
			}
		}
	}
}

// plyRecorder is an Orderer that keeps natural order and records every ply
// it is asked to order children at.
type plyRecorder struct {
	mu    sync.Mutex
	plies map[int]bool
}

func (r *plyRecorder) Order(kids []game.Position, ply int) []game.Position {
	r.mu.Lock()
	r.plies[ply] = true
	r.mu.Unlock()
	return kids
}

func (r *plyRecorder) Cost(n, ply int) int { return 0 }

// TestBackendsOrderAtTruePlies checks that every backend passes its orderer
// the true distance from the game root, the root's children being ply 1, so
// a ply-limited ordering policy (StaticOrder's MaxPly) sorts the same plies
// whichever backend searches.
func TestBackendsOrderAtTruePlies(t *testing.T) {
	pos, depth := othello.Start(), 5
	want := []int{1, 2, 3, 4}
	for _, name := range backend.Names() {
		rec := &plyRecorder{plies: map[int]bool{}}
		be, err := backend.New(name, backend.Config{Workers: 2, SerialDepth: 2, Order: rec})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := be.Search(backend.Request{Pos: pos, Depth: depth, Window: game.FullWindow()}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got []int
		for p := range rec.plies {
			got = append(got, p)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s ordered children at plies %v, want %v", name, got, want)
		}
	}
}

// TestRegistryErrors pins the validation surface servers build on: unknown
// names are rejected with a message naming the registered set, and the set
// itself contains the three shipped backends.
func TestRegistryErrors(t *testing.T) {
	if _, err := backend.New("nosuch", backend.Config{}); err == nil {
		t.Fatal("unknown backend constructed")
	} else if got := err.Error(); !strings.Contains(got, "er") || !strings.Contains(got, "serial") || !strings.Contains(got, "lazysmp") {
		t.Fatalf("error does not name the registered set: %q", got)
	}
	for _, name := range []string{"er", "serial", "lazysmp"} {
		if !backend.Valid(name) {
			t.Fatalf("backend %q not registered", name)
		}
	}
	if backend.Valid("nosuch") {
		t.Fatal("Valid accepted an unknown name")
	}
}

package core

import (
	"fmt"
	"testing"

	"ertree/internal/connect4"
	"ertree/internal/game"
	"ertree/internal/othello"
	"ertree/internal/randtree"
	"ertree/internal/serial"
	"ertree/internal/ttt"
)

// Metamorphic schedule-invariance: the root value and the Exact flag are
// functions of the position and depth alone, not of the schedule. Varying the
// worker count must leave both unchanged on every game. This is the
// test-suite form of the paper's soundness argument — speculation may
// reorder work arbitrarily, but combine is commutative and windows only
// narrow, so every schedule converges to the serial value.

// metamorphicVariants is the schedule grid every position is searched under:
// P ∈ {1,2,4,8}.
func metamorphicVariants() []Options {
	var opts []Options
	for _, p := range []int{1, 2, 4, 8} {
		o := DefaultOptions()
		o.Workers = p
		opts = append(opts, o)
	}
	return opts
}

func TestMetamorphicScheduleInvariance(t *testing.T) {
	cases := []struct {
		name  string
		pos   game.Position
		depth int
	}{
		{"ttt", ttt.New(), 6},
		{"connect4", connect4.New(), 6},
		{"othello", othello.Start(), 4},
		{"randtree", (&randtree.Tree{Seed: 77, Degree: 3, Depth: 6, ValueRange: 500}).Root(), 6},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			want := (&serial.Searcher{}).Negmax(c.pos, c.depth)
			for _, opt := range metamorphicVariants() {
				opt.SerialDepth = c.depth / 2
				label := fmt.Sprintf("P=%d", opt.Workers)
				res, err := Search(c.pos, c.depth, opt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if res.Value != want {
					t.Errorf("%s: Search = %d, serial negamax = %d", label, res.Value, want)
				}
				if !res.Exact {
					t.Errorf("%s: full-window search reported Exact=false", label)
				}
			}
		})
	}
}

// TestMetamorphicRootWindowInexact drives the same grid through a root window
// that excludes the true value, so the search must fail low everywhere:
// Exact=false on every schedule, never flipping to true on any worker count.
func TestMetamorphicRootWindowInexact(t *testing.T) {
	tr := &randtree.Tree{Seed: 78, Degree: 3, Depth: 6, ValueRange: 500}
	const depth = 6
	want := (&serial.Searcher{}).Negmax(tr.Root(), depth)
	w := game.Window{Alpha: want, Beta: want + 100} // strict Contains excludes want
	for _, opt := range metamorphicVariants() {
		opt.SerialDepth = 2
		opt.RootWindow = &w
		res, err := Search(tr.Root(), depth, opt)
		if err != nil {
			t.Fatalf("P=%d: %v", opt.Workers, err)
		}
		if res.Exact {
			t.Errorf("P=%d: window (%d,%d) excludes true value %d but Exact=true (value %d)",
				opt.Workers, w.Alpha, w.Beta, want, res.Value)
		}
		if res.Value > want {
			t.Errorf("P=%d: fail-low bound %d exceeds true value %d",
				opt.Workers, res.Value, want)
		}
	}
}

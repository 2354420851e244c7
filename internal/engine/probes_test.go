package engine

import (
	"context"
	"math/rand"
	"testing"

	"ertree/internal/checkers"
	"ertree/internal/connect4"
	"ertree/internal/game"
	"ertree/internal/othello"
	"ertree/internal/tt"
)

// midgame plays a seeded random line of the given length from start and
// returns the first such position that is not terminal.
func midgame(start game.Position, plies int, seed int64) game.Position {
	r := rand.New(rand.NewSource(seed))
	for {
		pos, n := start, 0
		for ; n < plies; n++ {
			kids := pos.Children()
			if len(kids) == 0 {
				break
			}
			pos = kids[r.Intn(len(kids))]
		}
		if n == plies && len(pos.Children()) > 0 {
			return pos
		}
	}
}

// TestMTDFProbesERMatchesSerial checks that MTD(f) converges as fast on the
// er backend as on the serial one, and about as cheaply. MTD(f) is cheap
// only when each null-window probe returns a tight fail-soft bound (a
// backend that returns the window edge makes it step one unit per probe)
// and when the search keeps the bounds of interior nodes in memory across
// probes (Plaat et al.). Single-worker sessions deepen seeded Othello,
// Connect Four and checkers midgames to the depths and serial grains of the
// benchmark's MTD(f) workload, each game on one engine per backend so both
// tables see the same sequence of positions. The er backend may spend at
// most twice the serial backend's probes and generate at most 1.5 times its
// nodes.
func TestMTDFProbesERMatchesSerial(t *testing.T) {
	const positions, maxRatio, maxNodeRatio = 6, 2.0, 1.5
	for _, g := range []struct {
		name               string
		start              game.Position
		plies              int
		order              game.Orderer
		depth, serialDepth int
	}{
		{"othello", othello.Start(), 12, game.StaticOrder{MaxPly: 5}, 4, 2},
		{"connect4", connect4.New(), 8, nil, 6, 3},
		{"checkers", checkers.Start(), 10, game.StaticOrder{MaxPly: 5}, 5, 3},
	} {
		probes := map[string]int{}
		nodes := map[string]int64{}
		for _, be := range []string{"serial", "er"} {
			e := New(Config{
				Name: g.name, Backend: be, Driver: "mtdf", Workers: 1,
				SerialDepth: g.serialDepth, Order: g.order,
				TableBits: 18, TableImpl: tt.ImplLockFree, MaxConcurrent: 1,
			})
			for i := 0; i < positions; i++ {
				pos := midgame(g.start, g.plies, int64(1000*g.plies+i))
				an, err := e.Analyze(context.Background(), pos, g.depth)
				if err != nil {
					t.Fatalf("%s %s position %d: %v", g.name, be, i, err)
				}
				if want := oracle(pos, g.depth); an.Value != want {
					t.Fatalf("%s %s position %d: value %d, oracle %d", g.name, be, i, an.Value, want)
				}
				for _, it := range an.Iterations {
					probes[be] += it.Probes
				}
				nodes[be] += an.Nodes
			}
		}
		ratio := float64(probes["er"]) / float64(probes["serial"])
		t.Logf("%s: %d probes on er, %d on serial over %d sessions (%.2fx)",
			g.name, probes["er"], probes["serial"], positions, ratio)
		if ratio > maxRatio {
			t.Errorf("%s: er+mtdf spent %.2fx the probes of serial+mtdf (%d vs %d), want at most %.1fx",
				g.name, ratio, probes["er"], probes["serial"], maxRatio)
		}
		nodeRatio := float64(nodes["er"]) / float64(nodes["serial"])
		t.Logf("%s: %d nodes on er, %d on serial (%.2fx)", g.name, nodes["er"], nodes["serial"], nodeRatio)
		if nodeRatio > maxNodeRatio {
			t.Errorf("%s: er+mtdf generated %.2fx the nodes of serial+mtdf (%d vs %d), want at most %.1fx",
				g.name, nodeRatio, nodes["er"], nodes["serial"], maxNodeRatio)
		}
	}
}

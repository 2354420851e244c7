package core

import (
	"fmt"
	"sync"
	"testing"

	"ertree/internal/checkers"
	"ertree/internal/connect4"
	"ertree/internal/game"
	"ertree/internal/othello"
	"ertree/internal/randtree"
	"ertree/internal/serial"
)

// allocCase is one family of the benchmark's solve workload: a midgame
// position searched at that workload's depth and serial grain, under the
// family's move ordering.
type allocCase struct {
	name          string
	pos           game.Position
	depth, serial int
	order         game.Orderer
}

// walk plays the children at the given indices (modulo the child count) from
// pos, giving a reproducible midgame position.
func walk(pos game.Position, picks ...int) game.Position {
	for _, i := range picks {
		kids := pos.Children()
		pos = kids[i%len(kids)]
	}
	return pos
}

func allocCases() []allocCase {
	static := game.StaticOrder{MaxPly: 5}
	return []allocCase{
		{"othello", walk(othello.Start(), 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8), 6, 4, static},
		{"connect4", walk(connect4.New(), 2, 4, 1, 3, 5, 0, 6, 2), 8, 5, nil},
		{"checkers", walk(checkers.Start(), 6, 5, 4, 3, 2, 1, 0, 6, 5, 4), 7, 5, static},
		{"randtree", (&randtree.Tree{Seed: 0x5EC0_0001, Degree: 4, Depth: 10, ValueRange: 10000}).Root(), 10, 7, nil},
	}
}

// TestSearchAllocsPerGeneratedNode pins the allocation rate of the real
// runtime on the solve workload's families: once serial ER's pooled stores
// are warm, child generation below the serial depth allocates nothing, and
// what remains is the shared tree above it (whose nodes outlive a task and
// keep Children) and each search's fixed set-up.
func TestSearchAllocsPerGeneratedNode(t *testing.T) {
	for _, c := range allocCases() {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/P=%d", c.name, workers), func(t *testing.T) {
				opt := DefaultOptions()
				opt.Workers = workers
				opt.SerialDepth = c.serial
				opt.Order = c.order
				var generated, runs int64
				allocs := testing.AllocsPerRun(10, func() {
					res, err := Search(c.pos, c.depth, opt)
					if err != nil {
						t.Fatal(err)
					}
					generated += res.Stats.Generated
					runs++
				})
				perNode := allocs / (float64(generated) / float64(runs))
				t.Logf("%.1f allocations per search, %.0f nodes, %.4f per node", allocs, float64(generated)/float64(runs), perNode)
				if perNode > 0.05 {
					t.Fatalf("%.4f allocations per generated node, want at most 0.05", perNode)
				}
			})
		}
	}
}

// TestConcurrentSearches runs several searches at once on different
// positions, each checked against the negamax oracle: serial ER's pooled
// stores cross goroutines, and a store two searches shared would corrupt
// both.
func TestConcurrentSearches(t *testing.T) {
	type job struct {
		name  string
		pos   game.Position
		depth int
		opt   Options
		want  game.Value
	}
	var jobs []job
	for i, c := range allocCases() {
		depth := c.depth - 2 // the oracle visits every node
		opt := DefaultOptions()
		opt.Workers = 1 + i%2
		opt.SerialDepth = depth - 2
		opt.Order = c.order
		var s serial.Searcher
		jobs = append(jobs, job{c.name, c.pos, depth, opt, s.Negmax(c.pos, depth)})
	}
	const rounds = 3
	var wg sync.WaitGroup
	for g := 0; g < 2*len(jobs); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				j := jobs[(g+r)%len(jobs)]
				res, err := Search(j.pos, j.depth, j.opt)
				if err != nil {
					t.Errorf("%s: %v", j.name, err)
					return
				}
				if res.Value != j.want {
					t.Errorf("%s (goroutine %d, round %d): %d, oracle %d", j.name, g, r, res.Value, j.want)
				}
			}
		}(g)
	}
	wg.Wait()
}

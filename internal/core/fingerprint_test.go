package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"ertree/internal/checkers"
	"ertree/internal/connect4"
	"ertree/internal/game"
	"ertree/internal/othello"
	"ertree/internal/randtree"
	"ertree/internal/serial"
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

// searchFamily is a seeded set of positions searched at one depth with the
// family's move ordering.
type searchFamily struct {
	name      string
	order     game.Orderer
	depth     int
	positions []game.Position
}

// gameFamilies draws n seeded midgames per game (Othello after 12 plies,
// Connect Four after 8, checkers after 10) at the given depths; the games
// with a static evaluator worth sorting by use the paper's static sort.
func gameFamilies(n int, othelloDepth, connect4Depth, checkersDepth int) []searchFamily {
	draw := func(start game.Position, plies int) []game.Position {
		out := make([]game.Position, n)
		for i := range out {
			out[i] = midgame(start, plies, int64(1000*plies+i))
		}
		return out
	}
	return []searchFamily{
		{"othello", game.StaticOrder{MaxPly: 5}, othelloDepth, draw(othello.Start(), 12)},
		{"connect4", nil, connect4Depth, draw(connect4.New(), 8)},
		{"checkers", game.StaticOrder{MaxPly: 5}, checkersDepth, draw(checkers.Start(), 10)},
	}
}

// countDigest accumulates an FNV-1a digest over a sequence of counts.
type countDigest struct {
	h   uint64
	gen int64
}

func newCountDigest() *countDigest { return &countDigest{h: fnv.New64a().Sum64()} }

func (d *countDigest) add(counts ...int64) {
	for _, c := range counts {
		for i := 0; i < 8; i++ {
			d.h ^= uint64(byte(c >> (8 * i)))
			d.h *= 1099511628211
		}
	}
}

func (d *countDigest) addStats(s game.StatsSnapshot) {
	d.gen += s.Generated
	d.add(s.Generated, s.Evaluated, s.SortEvals, s.Cutoffs, s.Refutations, s.RefuteFails, int64(s.MaxPlySeen))
}

func (d *countDigest) addResult(r Result) {
	d.addStats(r.Stats)
	d.add(r.SerialTasks, r.LeafTasks, r.SpecPops, r.Dropped, r.CutoffDrops, r.HeapOps,
		r.VirtualTime, r.BusyTime, r.StarveTime, r.LockTime)
}

// fingerprintWindows are the windows each position is searched under,
// placed relative to its exact value v: the full window, null windows 8
// below and above v, a narrow window containing v and one above it.
func fingerprintWindows(v game.Value) []game.Window {
	return []game.Window{
		game.FullWindow(),
		{Alpha: v - 9, Beta: v - 8},
		{Alpha: v + 8, Beta: v + 9},
		{Alpha: v - 25, Beta: v + 25},
		{Alpha: v + 3, Beta: v + 40},
	}
}

// searchFingerprint searches every family position under every fingerprint
// window with serial ER and Examine, with Simulate at P = 1 and 3, and with
// Search at P = 1 (SerialDepth 1 and 3 for the parallel searches), and
// digests the node, cutoff, refutation, task and virtual-time counts per
// family and searcher. Values are left out: what the digest pins is the
// tree each searcher walks.
func searchFingerprint(t testing.TB) map[string]*countDigest {
	t.Helper()
	fams := gameFamilies(3, 4, 5, 5)
	var trees []game.Position
	for seed := uint64(1); seed <= 3; seed++ {
		trees = append(trees, (&randtree.Tree{Seed: seed, Degree: 4, Depth: 6, ValueRange: 10000}).Root())
	}
	fams = append(fams, searchFamily{"randtree", nil, 6, trees})

	out := map[string]*countDigest{}
	digest := func(key string) *countDigest {
		if out[key] == nil {
			out[key] = newCountDigest()
		}
		return out[key]
	}
	for _, f := range fams {
		for _, pos := range f.positions {
			v := (&serial.Searcher{Order: f.order}).AlphaBeta(pos, f.depth, game.FullWindow())
			for _, w := range fingerprintWindows(v) {
				for _, examine := range []bool{false, true} {
					var st game.Stats
					s := serial.Searcher{Order: f.order, Stats: &st}
					key := f.name + "/ER"
					if examine {
						s.Examine(pos, f.depth, w)
						key = f.name + "/Examine"
					} else {
						s.ER(pos, f.depth, w)
					}
					digest(key).addStats(st.Snapshot())
				}
				for _, sd := range []int{1, 3} {
					opt := DefaultOptions()
					opt.Order = f.order
					opt.SerialDepth = sd
					w := w
					opt.RootWindow = &w
					for _, p := range []int{1, 3} {
						opt.Workers = p
						digest(fmt.Sprintf("%s/Simulate/P%d", f.name, p)).addResult(
							mustSimulate(t, pos, f.depth, opt, DefaultCostModel()))
					}
					opt.Workers = 1
					digest(f.name + "/Search/P1").addResult(mustSearch(t, pos, f.depth, opt))
				}
			}
		}
	}
	return out
}

// TestSearchTreeFingerprint pins the trees serial ER, Examine, Simulate and
// Search walk on seeded Othello, Connect Four, checkers and random-tree
// positions under full, null and narrow windows. The digests were recorded
// before ER became fail-soft: the fail-soft value rides along Figure 8's
// value, which alone steers windows, cutoffs and orderings, so every
// digest must stay as recorded. A change that moves one of these changes the
// tree the paper's measurements walk.
func TestSearchTreeFingerprint(t *testing.T) {
	want := map[string]struct {
		digest    uint64
		generated int64
	}{
		"othello/ER":           {0xe6cb50e5cfb5a2ea, 21555},
		"othello/Examine":      {0x0481c33f6eecf042, 18735},
		"othello/Simulate/P1":  {0xb4ec5a35df49cbe8, 29936},
		"othello/Simulate/P3":  {0x884603fd0210356c, 33228},
		"othello/Search/P1":    {0x9ce5ec55f9b3e150, 29936},
		"connect4/ER":          {0xbb2e79e79cc354d7, 32823},
		"connect4/Examine":     {0xa036e39065d68913, 30990},
		"connect4/Simulate/P1": {0x5159efd0b8c7a8e0, 55185},
		"connect4/Simulate/P3": {0x40fa4707fedf3cf9, 58003},
		"connect4/Search/P1":   {0xc66665f486393be4, 55185},
		"checkers/ER":          {0x7239d57b154b096b, 10754},
		"checkers/Examine":     {0x4160930aeaa0c3fd, 17134},
		"checkers/Simulate/P1": {0xb7445a93f98f53f3, 18902},
		"checkers/Simulate/P3": {0x95238a752d136821, 22748},
		"checkers/Search/P1":   {0x5c9011db48b844b3, 18902},
		"randtree/ER":          {0x1a9581a6a1e7aee9, 29967},
		"randtree/Examine":     {0xa34a37b7b5b9284e, 30500},
		"randtree/Simulate/P1": {0xb5adf29725723ce0, 58554},
		"randtree/Simulate/P3": {0xbc81e917b4780550, 68446},
		"randtree/Search/P1":   {0xb519ae6522d67d00, 58554},
	}
	got := searchFingerprint(t)
	for key, w := range want {
		d := got[key]
		if d == nil {
			t.Errorf("%s: not searched", key)
			continue
		}
		if d.h != w.digest || d.gen != w.generated {
			t.Errorf("%s: digest 0x%016x over %d generated nodes, want 0x%016x over %d",
				key, d.h, d.gen, w.digest, w.generated)
		}
	}
	if len(got) != len(want) {
		t.Errorf("searched %d family/searcher pairs, pinned %d", len(got), len(want))
	}
}

package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"ertree"
)

// family is one source of positions: a game reached by a seeded random
// playout of a fixed length from its start (a midgame position), or a
// uniform random tree of Table 3's shape.
type family struct {
	name  string
	start func() ertree.Position // nil for random trees
	order ertree.Orderer         // the game's move ordering (the paper's static sort)
	plies int                    // playout length
}

// Random trees have Table 3's R1 shape: degree 4, searched to their full
// height. Each corpus entry is a fresh tree (its own seed).
const treeDegree = 4

// Playout lengths are fixed: a range of lengths widens the spread of search
// costs between positions, and so between seeds, without adding a layer the
// benchmark does not already load.
var (
	othelloFam  = family{name: "othello", start: func() ertree.Position { return ertree.Othello() }, order: ertree.StaticOrder{MaxPly: 5}, plies: 12}
	connect4Fam = family{name: "connect4", start: func() ertree.Position { return ertree.Connect4() }, plies: 8}
	checkersFam = family{name: "checkers", start: func() ertree.Position { return ertree.Checkers() }, order: ertree.StaticOrder{MaxPly: 5}, plies: 10}
	randtreeFam = family{name: "randtree"}
)

// spec is a family searched at a fixed depth with a fixed serial work grain.
type spec struct {
	fam         *family
	depth       int
	serialDepth int
}

// item is one generated position.
type item struct {
	spec
	moves    []int  // child indices from the start (games)
	treeSeed uint64 // tree seed (random trees)
	pos      ertree.Position
}

// key identifies the position and its search depth.
func (it *item) key() string {
	if it.fam.start == nil {
		return fmt.Sprintf("%s/%x/d%d", it.fam.name, it.treeSeed, it.depth)
	}
	return fmt.Sprintf("%s/%s/d%d", it.fam.name, movesString(it.moves), it.depth)
}

func movesString(moves []int) string {
	s := make([]string, len(moves))
	for i, m := range moves {
		s[i] = strconv.Itoa(m)
	}
	return strings.Join(s, ",")
}

// playout walks random moves from the family's start until it reaches a
// non-terminal position after the family's playout length.
func playout(r *rand.Rand, f *family) ([]int, ertree.Position) {
	for {
		pos, moves := f.start(), make([]int, 0, f.plies)
		for len(moves) < f.plies {
			kids := pos.Children()
			if len(kids) == 0 {
				break
			}
			i := r.Intn(len(kids))
			moves, pos = append(moves, i), kids[i]
		}
		if len(moves) == f.plies && len(pos.Children()) > 0 {
			return moves, pos
		}
	}
}

// generator draws distinct positions round-robin over specs, so every run
// has the same family mix whatever the seed.
type generator struct {
	r     *rand.Rand
	specs []spec
	next  int
	seen  map[string]bool
}

func newGenerator(seed int64, specs []spec) *generator {
	return &generator{r: rand.New(rand.NewSource(seed)), specs: specs, seen: map[string]bool{}}
}

// draw returns the next distinct position.
func (g *generator) draw() item {
	sp := g.specs[g.next%len(g.specs)]
	g.next++
	for {
		it := item{spec: sp}
		if sp.fam.start == nil {
			it.treeSeed = g.r.Uint64()
			it.pos = ertree.NewRandomTree(it.treeSeed, treeDegree, sp.depth).Root()
		} else {
			it.moves, it.pos = playout(g.r, sp.fam)
		}
		if k := it.key(); !g.seen[k] {
			g.seen[k] = true
			return it
		}
	}
}

func (g *generator) drawN(n int) []item {
	out := make([]item, n)
	for i := range out {
		out[i] = g.draw()
	}
	return out
}

// request is one HTTP request of the serve workload.
type request struct {
	item    int  // index into the corpus items
	analyze bool // /analyze instead of /bestmove
	hot     bool // drawn from the hot set (answered by the cache)
}

// corpus is everything a run feeds the program, fixed by the seed.
type corpus struct {
	items    []item
	hot      int       // items[:hot] are the serve hot set
	warm     []item    // warm-up positions, never timed
	requests []request // serve only, in the order they are sent
}

// fingerprint hashes the positions, depths and request sequence, so two runs
// can show they measured identical inputs.
func (c *corpus) fingerprint() string {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, set := range [][]item{c.items, c.warm} {
		for i := range set {
			h.Write([]byte(set[i].key()))
		}
		put(math.MaxUint64)
	}
	put(uint64(c.hot))
	for _, q := range c.requests {
		flags := uint64(0)
		if q.analyze {
			flags |= 1
		}
		if q.hot {
			flags |= 2
		}
		put(uint64(q.item))
		put(flags)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// mixBlock is the span over which requestMix makes its shares exact, so a
// run that stops anywhere has sent very nearly the intended mix.
const mixBlock = 60

// requestMix draws n requests in blocks of mixBlock. In every block exactly
// hotShare of the requests repeat one of the hot items and exactly
// analyzeShare use /analyze; which ones, and which hot item, is drawn. The
// other requests each take a fresh item, in the order fresh gives them.
func requestMix(r *rand.Rand, n, hot int, hotShare, analyzeShare float64, fresh func() int) []request {
	out := make([]request, 0, n)
	nHot := int(math.Round(hotShare * mixBlock))
	nAnalyze := int(math.Round(analyzeShare * mixBlock))
	for len(out) < n {
		hotRank, analyzeRank := r.Perm(mixBlock), r.Perm(mixBlock)
		for i := 0; i < mixBlock && len(out) < n; i++ {
			q := request{hot: hotRank[i] < nHot, analyze: analyzeRank[i] < nAnalyze}
			if q.hot {
				q.item = r.Intn(hot)
			} else {
				q.item = fresh()
			}
			out = append(out, q)
		}
	}
	return out
}

package core

import (
	"fmt"
	"testing"

	"ertree/internal/game"
	"ertree/internal/randtree"
	"ertree/internal/serial"
	"ertree/internal/tt"
)

// Table audit.
//
// A memory-enhanced search is only as sound as what it stores: one wrong
// bound answers later searches of the same position wrongly, in this search
// or in any later one sharing the table. The root-value checks elsewhere
// see a wrong entry only when it happens to reach the root. The audit looks
// at every entry instead: it walks every node of the searched tree and
// checks the node's entry at each remaining depth it was searched to
// against the negamax oracle at that depth — an Exact entry must equal it,
// a Lower entry must not exceed it, an Upper entry must not fall below it.

// tableAudit walks trees and checks the table entries of their nodes,
// memoizing the oracle per position and depth.
type tableAudit struct {
	table   tt.Prober
	oracle  map[auditKey]game.Value
	visited map[auditKey]bool
	checked int // entries checked
}

type auditKey struct {
	hash  uint64
	depth int
}

func newTableAudit(table tt.Prober) *tableAudit {
	return &tableAudit{table: table, oracle: map[auditKey]game.Value{}, visited: map[auditKey]bool{}}
}

// negamax is the memoized depth-limited negamax value of pos.
func (a *tableAudit) negamax(pos game.Position, h uint64, depth int) game.Value {
	k := auditKey{h, depth}
	if v, ok := a.oracle[k]; ok {
		return v
	}
	kids := pos.Children()
	var v game.Value
	if depth == 0 || len(kids) == 0 {
		v = pos.Value()
	} else {
		v = -game.Inf
		for _, c := range kids {
			v = max(v, -a.negamax(c, c.(tt.Hashable).Hash(), depth-1))
		}
	}
	a.oracle[k] = v
	return v
}

// walk checks every node under pos to the given remaining depth, pos
// included, and reports the first unsound entry it finds.
func (a *tableAudit) walk(t testing.TB, pos game.Position, depth int) {
	t.Helper()
	h := pos.(tt.Hashable).Hash()
	k := auditKey{h, depth}
	if depth < 1 || a.visited[k] {
		return
	}
	a.visited[k] = true
	if e, ok := a.table.Probe(tt.Key(h, depth), depth); ok {
		a.checked++
		v := a.negamax(pos, h, depth)
		if e.Bound == tt.Exact && e.Value != v || e.Bound == tt.Lower && e.Value > v ||
			e.Bound == tt.Upper && e.Value < v {
			t.Fatalf("unsound table entry at depth %d: %v %d, negamax %d", depth, boundName(e.Bound), e.Value, v)
		}
	}
	for _, c := range pos.Children() {
		a.walk(t, c, depth-1)
	}
}

func boundName(b tt.Bound) string {
	return [...]string{tt.Exact: "exact", tt.Lower: "lower", tt.Upper: "upper"}[b]
}

// auditTable checks every entry of table that belongs to a node of the trees
// under root searched to depths 1..depth, and returns how many it checked.
func auditTable(t testing.TB, table tt.Prober, root game.Position, depth int) int {
	t.Helper()
	a := newTableAudit(table)
	for d := 1; d <= depth; d++ {
		a.walk(t, root, d)
	}
	return a.checked
}

// auditWindows are the root windows the audit searches under, relative to
// the exact value v: full, null windows on the value and off it on either
// side, and narrow windows around it and beside it.
func auditWindows(v game.Value) []game.Window {
	return []game.Window{
		game.FullWindow(),
		{Alpha: v - 1, Beta: v}, {Alpha: v, Beta: v + 1},
		{Alpha: v - 9, Beta: v - 8}, {Alpha: v + 8, Beta: v + 9},
		{Alpha: v - 3, Beta: v + 3}, {Alpha: v + 1, Beta: v + 20}, {Alpha: v - 20, Beta: v - 1},
	}
}

// checkRootMove checks the root move and scores of a search of root to the
// given depth under w against the oracle. The proving move's score is the
// root value: the move's value when the root is exact, a lower bound on it
// when the root failed high. Every other folded score is an upper bound on
// its move's value, no better than the root's. A refuted move can share the
// best score without sharing the best value, so a tie at the best score
// never makes a move the proving one.
func checkRootMove(t *testing.T, a *tableAudit, root game.Position, depth int, w game.Window, res Result) {
	t.Helper()
	if res.Move < 0 {
		return // the root ran as one serial task
	}
	if res.Scores[res.Move] != res.Value {
		t.Fatalf("proving move %d scored %d, root value %d", res.Move, res.Scores[res.Move], res.Value)
	}
	for i, k := range root.Children() {
		s := res.Scores[i]
		if s == game.NoValue {
			continue
		}
		v := -a.negamax(k, k.(tt.Hashable).Hash(), depth-1)
		lower := i == res.Move && res.Value > w.Alpha
		switch {
		case s > res.Value:
			t.Fatalf("move %d scored %d above the root value %d", i, s, res.Value)
		case lower && res.Exact && v != s:
			t.Fatalf("proving move %d scored %d, its value is %d", i, s, v)
		case lower && v < s:
			t.Fatalf("proving move %d scored %d above its value %d", i, s, v)
		case !lower && v > s:
			t.Fatalf("move %d scored %d below its value %d", i, s, v)
		}
	}
}

// auditSearcher runs the i-th search of an audit: root to depth d under w,
// on table.
type auditSearcher func(i int, root game.Position, d int, w game.Window, order game.Orderer, table tt.SharedTable) (Result, error)

// auditCore is Search. Successive searches rotate through P ∈ {1,2,3} and
// two serial depths, so shallow depths run as one serial task at the root
// and deeper ones through the shared tree.
func auditCore(i int, root game.Position, d int, w game.Window, order game.Orderer, table tt.SharedTable) (Result, error) {
	opt := DefaultOptions()
	opt.Workers = 1 + i%3
	opt.SerialDepth = []int{1, 3}[i/6%2]
	opt.Order, opt.Table, opt.RootWindow = order, table, &w
	return Search(root, d, opt)
}

// auditScout is the serial scout's root entry, the search of the serial and
// lazysmp backends, which can share an engine's table with Search.
func auditScout(i int, root game.Position, d int, w game.Window, order game.Orderer, table tt.SharedTable) (Result, error) {
	s := serial.WithTable(serial.Searcher{Order: order}, table, new(tt.Counts))
	r, _ := serial.PVSRoot(&s, root, d, w, nil, nil)
	return Result{Value: r.Value, Move: r.Move, Scores: r.Scores, Exact: w.Contains(r.Value)}, nil
}

// auditModes are the searcher sequences an audit runs on one table: Search
// alone, the scout alone, and the two interleaved.
var auditModes = []struct {
	name      string
	searchers []auditSearcher
}{
	{"core", []auditSearcher{auditCore}},
	{"scout", []auditSearcher{auditScout}},
	{"mixed", []auditSearcher{auditCore, auditScout}},
}

// auditSearches deepens root from depth 1 to depth on one table, searching
// each depth under every audit window with the searchers in turn, checks
// each result and its root move against the oracle, then audits the table.
func auditSearches(t *testing.T, root game.Position, depth int, order game.Orderer, searchers []auditSearcher) int {
	t.Helper()
	table := tt.NewLockFree(16)
	moves := newTableAudit(table)
	i := 0
	for d := 1; d <= depth; d++ {
		want := oracle(root, d)
		for _, w := range auditWindows(want) {
			res, err := searchers[i%len(searchers)](i, root, d, w, order, table)
			if err != nil {
				t.Fatal(err)
			}
			if !w.FailSoft(res.Value, want) {
				t.Fatalf("depth %d search %d window (%d,%d): %d is not a fail-soft result for %d",
					d, i, w.Alpha, w.Beta, res.Value, want)
			}
			checkRootMove(t, moves, root, d, w, res)
			i++
		}
	}
	return auditTable(t, table, root, depth)
}

// TestTableAudit audits the table after repeated searches of random trees
// (heavy ties included) and of Othello, Connect Four and checkers midgames,
// by Search, by the serial scout, and by both on one table.
func TestTableAudit(t *testing.T) {
	random, games := make([]int, len(auditModes)), make([]int, len(auditModes))
	shapes := []struct {
		degree, depth int
		valueRange    int32
	}{{2, 8, 1}, {3, 6, 2}, {4, 5, 1}, {3, 7, 20}, {4, 6, 200}}
	for seed := uint64(1); seed <= 10; seed++ {
		for _, sh := range shapes {
			tr := &randtree.Tree{Seed: seed, Degree: sh.degree, Depth: sh.depth, ValueRange: sh.valueRange}
			t.Run(tr.String(), func(t *testing.T) {
				for m, mode := range auditModes {
					t.Run(mode.name, func(t *testing.T) {
						random[m] += auditSearches(t, tr.Root(), tr.Depth, nil, mode.searchers)
					})
				}
			})
		}
	}
	for _, f := range gameFamilies(3, 4, 6, 5) {
		for i, pos := range f.positions {
			t.Run(fmt.Sprintf("%s%d", f.name, i), func(t *testing.T) {
				for m, mode := range auditModes {
					t.Run(mode.name, func(t *testing.T) {
						games[m] += auditSearches(t, pos, f.depth, f.order, mode.searchers)
					})
				}
			})
		}
	}
	for m, mode := range auditModes {
		t.Logf("%s: table entries checked: %d on random trees, %d on games", mode.name, random[m], games[m])
		if random[m] == 0 || games[m] == 0 {
			t.Fatalf("%s: the audit checked no entries", mode.name)
		}
	}
}

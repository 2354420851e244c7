package game

import (
	"cmp"
	"slices"
)

// Orderer decides how the children of a node are ordered before search.
// Ordering quality is the single most important driver of alpha-beta
// performance (§2.2), and the paper's experiments (§7) sort children by
// static value above a configurable ply.
type Orderer interface {
	// Order returns the children of pos in the order they should be
	// searched. ply is the distance from the search root (root = 0).
	// Implementations may return the input slice (possibly permuted in
	// place) or a new slice.
	Order(children []Position, ply int) []Position

	// Cost reports how many static-evaluator applications Order performs
	// for n children at the given ply, so searches can charge ordering
	// overhead to their statistics (the Figure 12 effect).
	Cost(n, ply int) int
}

// NaturalOrder searches children in the game's natural move order.
type NaturalOrder struct{}

// Order returns children unchanged.
func (NaturalOrder) Order(children []Position, ply int) []Position { return children }

// Cost is always zero: no evaluator calls are made.
func (NaturalOrder) Cost(n, ply int) int { return 0 }

// StaticOrder sorts children by their static evaluation so that the child
// most favorable to the parent (the child with the lowest own-perspective
// value) is searched first. Sorting stops below MaxPly, matching the paper's
// setup ("Sorting was not performed below ply five").
//
// Note that sorting is not free: it applies the static evaluator to every
// child. The per-child evaluator calls are charged to the search statistics
// by the algorithms themselves, which is how the paper's Figure 12 overhead
// effect (serial ER beating alpha-beta on O1 despite examining more nodes)
// arises.
type StaticOrder struct {
	// MaxPly is an exclusive bound: Order sorts the children of a node at
	// ply p only while p < MaxPly. Ply counts from 0 at the root, so
	// MaxPly = 5 sorts the nodes at plies 1 to 5, the paper's "not below
	// ply five".
	MaxPly int
}

// Order sorts children ascending by static value when ply < MaxPly. The
// sort is stable and permutes children in place; the keys live on the stack
// for up to orderKeys children, so ordinary expansions allocate nothing.
func (s StaticOrder) Order(children []Position, ply int) []Position {
	if ply >= s.MaxPly || len(children) < 2 {
		return children
	}
	type kv struct {
		p Position
		v Value
	}
	var buf [orderKeys]kv
	keyed := buf[:0]
	if len(children) > len(buf) {
		keyed = make([]kv, 0, len(children))
	}
	for _, c := range children {
		keyed = append(keyed, kv{p: c, v: c.Value()})
	}
	slices.SortStableFunc(keyed, func(a, b kv) int { return cmp.Compare(a.v, b.v) })
	for i, k := range keyed {
		children[i] = k.p
	}
	return children
}

// orderKeys is the largest branching factor StaticOrder sorts without
// allocating, above the usual degree of every game in this module.
const orderKeys = 64

// Cost reports how many static evaluations Order will perform for a node
// with n children at the given ply.
func (s StaticOrder) Cost(n, ply int) int {
	if ply >= s.MaxPly || n < 2 {
		return 0
	}
	return n
}

// Package randtree provides the synthetic game trees used in the paper's
// experiments (§7, Table 3): fixed-degree trees whose leaves carry
// independent pseudo-random values drawn from a uniform distribution, plus
// "strongly ordered" trees in Marsland's sense (§4.4) for the baseline
// experiments.
//
// Trees are never materialized. A position is identified by the hash of its
// path from the root, so the same (seed, path) always yields the same leaf
// value, searches of the same tree are reproducible across processes and
// processor counts, and trees with millions of leaves cost no memory.
package randtree

import (
	"fmt"

	"ertree/internal/game"
)

// Tree describes a uniform random game tree: every interior node has exactly
// Degree children, every root-to-leaf path has length Depth, and each leaf
// has an independent pseudo-random value uniform on [-ValueRange, ValueRange].
type Tree struct {
	Seed       uint64
	Degree     int
	Depth      int
	ValueRange int32
}

// Root returns the root position of the tree.
func (t *Tree) Root() game.Position {
	if t.Degree < 1 || t.Depth < 0 {
		panic(fmt.Sprintf("randtree: invalid tree %+v", t))
	}
	return pos{t: t, hash: splitmix64(t.Seed ^ 0xD1B54A32D192ED03), ply: 0}
}

func (t *Tree) String() string {
	return fmt.Sprintf("random(d=%d,h=%d,seed=%#x)", t.Degree, t.Depth, t.Seed)
}

type pos struct {
	t    *Tree
	hash uint64
	ply  int
}

var (
	_ game.Position = pos{}
	_ game.Expander = pos{}
)

// Children returns the Degree successors, or nil at the leaf ply.
func (p pos) Children() []game.Position {
	if p.ply >= p.t.Depth {
		return nil
	}
	out := make([]game.Position, p.t.Degree)
	for i := range out {
		out[i] = p.child(i)
	}
	return out
}

// AppendChildren implements game.Expander: the children Children returns,
// stored in slab.
func (p pos) AppendChildren(dst []game.Position, slab *game.Slab) []game.Position {
	if p.ply >= p.t.Depth {
		return dst
	}
	kids := game.Alloc[pos](slab, p.t.Degree)
	for i := range kids {
		kids[i] = p.child(i)
		dst = append(dst, &kids[i])
	}
	return dst
}

// child returns the i-th successor.
func (p pos) child(i int) pos {
	return pos{t: p.t, hash: childHash(p.hash, i), ply: p.ply + 1}
}

// Value returns the leaf's uniform pseudo-random value. For interior nodes
// it returns an *uninformed* estimate (independent noise in the same range):
// the paper's random-tree experiments do not benefit from static ordering,
// and tests rely on this property.
func (p pos) Value() game.Value {
	h := p.hash
	if p.ply < p.t.Depth {
		h = splitmix64(h ^ 0xA0761D6478BD642F) // decorrelate interior estimates
	}
	return uniform(h, p.t.ValueRange)
}

// Hash returns the node's identity hash, making random trees usable with
// transposition tables (tt.Hashable). A synthetic tree has no transpositions
// — every node's path hash is distinct — so the table serves cross-task and
// cross-search reuse rather than in-tree sharing.
func (p pos) Hash() uint64 { return p.hash }

// childHash derives the hash of the i-th child of a node with hash h.
func childHash(h uint64, i int) uint64 {
	return splitmix64(h ^ (uint64(i+1) * 0x9E3779B97F4A7C15))
}

// splitmix64 is the SplitMix64 finalizer (Steele, Lea & Flood 2014).
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// uniform maps a hash to a value uniform on [-r, r].
func uniform(h uint64, r int32) game.Value {
	if r <= 0 {
		return 0
	}
	span := uint64(2*r + 1)
	return game.Value(int64(h%span) - int64(r))
}

// The paper's Table 3 random workloads. Seeds are fixed so every figure is
// reproducible; the search depth equals the tree depth and the serial depths
// (7, 7, 5) live with the experiment configurations.

// R1 is random tree R1: degree 4, 10 ply.
func R1() *Tree { return &Tree{Seed: 0x5EC0_0001, Degree: 4, Depth: 10, ValueRange: 10000} }

// R2 is random tree R2: degree 4, 11 ply.
func R2() *Tree { return &Tree{Seed: 0x5EC0_0002, Degree: 4, Depth: 11, ValueRange: 10000} }

// R3 is random tree R3: degree 8, 7 ply.
func R3() *Tree { return &Tree{Seed: 0x5EC0_0003, Degree: 8, Depth: 7, ValueRange: 10000} }

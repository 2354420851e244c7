package core

import (
	"reflect"
	"slices"
	"testing"

	"ertree/internal/game"
	"ertree/internal/ttt"
)

// reservedSlots returns the node slots the arena's blocks hold, handed out
// or not.
func reservedSlots(a *nodeArena) int {
	n := 0
	for _, blk := range a.blocks {
		n += len(blk)
	}
	return n
}

func isZeroNode(n *node) bool { return reflect.ValueOf(*n).IsZero() }

// TestNodeArena: the arena reserves memory in proportion to the nodes a
// search builds. Blocks start at 16 nodes and double up to 512, so after k
// allocations at most 2k+16 slots are reserved — a search that builds a
// handful of shared-tree nodes (a null-window probe) pays for one small
// block, not for a 512-node slab. Release zeroes every handed-out slot (the
// rest of the newest block was never written) and drops the blocks.
func TestNodeArena(t *testing.T) {
	var a nodeArena
	parent := &node{}
	for i := 1; i <= 1600; i++ {
		n := a.alloc()
		if !isZeroNode(n) {
			t.Fatalf("alloc %d returned a non-zero node", i)
		}
		n.pos, n.parent, n.kids, n.moves = ttt.New(), parent, []*node{parent}, []game.Position{ttt.New()}
		n.seq, n.value, n.done, n.expanded = uint64(i), game.Value(i), true, true
		if got := a.allocated(); got != i {
			t.Fatalf("allocated() = %d after %d allocations", got, i)
		}
		if r := reservedSlots(&a); r > 2*i+16 {
			t.Fatalf("after %d allocations the arena reserves %d slots, want at most %d", i, r, 2*i+16)
		}
	}
	var sizes []int
	for _, blk := range a.blocks {
		sizes = append(sizes, len(blk))
	}
	if want := []int{16, 32, 64, 128, 256, 512, 512, 512}; !slices.Equal(sizes, want) {
		t.Fatalf("block sizes %v, want %v", sizes, want)
	}

	blocks := slices.Clone(a.blocks)
	a.release()
	if a.blocks != nil || a.allocated() != 0 {
		t.Fatalf("release kept %d blocks, allocated() = %d", len(a.blocks), a.allocated())
	}
	for bi, blk := range blocks {
		for ni := range blk {
			if !isZeroNode(&blk[ni]) {
				t.Fatalf("block %d node %d not zeroed after release", bi, ni)
			}
		}
	}
}

package core

// nodeArena slab-allocates tree nodes for one search. The paper's tree is
// shared and only grows, so nodes can live in append-only blocks: one Go
// allocation per block instead of one per node, which cuts both allocator
// pressure and GC scan work on the real runtime's hot path. Blocks start
// small and double up to a cap, so the arena reserves at most about twice
// what the search uses: most searches behind a root driver's null-window
// probes build only a handful of shared-tree nodes, and a fixed large first
// block would cost each of them a large zeroed allocation. All allocation
// happens under the engine lock (node creation is a shared-tree mutation),
// so the arena itself needs no synchronization.
type nodeArena struct {
	blocks [][]node
	used   int // slots handed out from the newest block
}

// Block sizes run arenaFirstBlock, twice that, ... up to arenaMaxBlock,
// then stay there.
const (
	arenaFirstBlock = 16
	arenaMaxBlock   = 512
)

// alloc returns a pointer to a fresh zero node.
func (a *nodeArena) alloc() *node {
	if nb := len(a.blocks); nb == 0 || a.used == len(a.blocks[nb-1]) {
		size := arenaFirstBlock
		if nb > 0 {
			size = min(2*len(a.blocks[nb-1]), arenaMaxBlock)
		}
		a.blocks = append(a.blocks, make([]node, size))
		a.used = 0
	}
	n := &a.blocks[len(a.blocks)-1][a.used]
	a.used++
	return n
}

// allocated returns the number of nodes handed out.
func (a *nodeArena) allocated() int {
	n := 0
	for _, blk := range a.blocks {
		n += len(blk)
	}
	if len(a.blocks) > 0 {
		n -= len(a.blocks[len(a.blocks)-1]) - a.used
	}
	return n
}

// release zeroes every handed-out node and drops the blocks, severing every
// position, parent, child and move reference the tree held: after release
// no node (and nothing a node pointed to) is reachable through the search
// state, even if a caller retains it. Slots never handed out are still zero.
func (a *nodeArena) release() {
	for i, blk := range a.blocks {
		if i == len(a.blocks)-1 {
			blk = blk[:a.used]
		}
		clear(blk)
	}
	a.blocks, a.used = nil, 0
}

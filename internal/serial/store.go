package serial

import (
	"sync"

	"ertree/internal/game"
)

// store is one serial search's storage: the node records every expansion
// writes its children into (expandER), a buffer the children of one
// expansion are generated into, and the slab their boards live in
// (game.Expander). Records and boards are released in stack order as the
// recursion finishes each subtree, so what is live at once is bounded by the
// recursion path: ER's er holds its children and grandchildren, evalFirst
// keeps the children it generates for its caller's refuteRest, refuteRest
// holds one child's children at a time, and every other algorithm holds the
// children of each node on the path. No child escapes the search, which
// returns values only.
//
// The store also carries the search's cancel channel (PVSRoot): the scout
// polls it every cancelCheckMask+1 node entries and, once it has fired,
// unwinds without storing anything.
type store struct {
	recs game.Stack[erNode]
	buf  []game.Position
	slab game.Slab

	cancel  <-chan struct{}
	steps   uint
	stopped bool
}

// cancelCheckMask paces the cancel poll: every 256 node entries, cheap
// enough to vanish in the noise, frequent enough that a deadline cut aborts
// within microseconds of real work.
const cancelCheckMask = 255

// mark is a point in a store's record and board stacks.
type mark struct{ recs, slab game.StackMark }

func (st *store) mark() mark { return mark{st.recs.Mark(), st.slab.Mark()} }

// release frees every record and board taken since m.
func (st *store) release(m mark) {
	st.recs.Release(m.recs)
	st.slab.Release(m.slab)
}

// put releases everything the search took and returns the store to the
// pool.
func (st *store) put() {
	st.release(mark{})
	st.cancel, st.steps, st.stopped = nil, 0, false
	stores.Put(st)
}

// cancelled reports whether the search's cancel channel has fired, polling
// it every cancelCheckMask+1 calls.
func (st *store) cancelled() bool {
	if st.cancel != nil && !st.stopped {
		st.steps++
		if st.steps&cancelCheckMask == 0 {
			select {
			case <-st.cancel:
				st.stopped = true
			default:
			}
		}
	}
	return st.stopped
}

// children generates pos's children into the store's buffer: through the
// position's Expander into the slab when it has one, through Children
// otherwise.
func (st *store) children(pos game.Position) []game.Position {
	if e, ok := pos.(game.Expander); ok {
		st.buf = e.AppendChildren(st.buf[:0], &st.slab)
	} else {
		st.buf = append(st.buf[:0], pos.Children()...)
	}
	return st.buf
}

// stores recycles the serial searches' storage. A search takes a store for
// its whole run and returns it empty, so concurrent searches never share one
// and a warm store serves the next search of any game.
var stores = sync.Pool{New: func() any { return new(store) }}

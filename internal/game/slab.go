package game

// Expander is an optional interface a Position implements to generate its
// children into storage the caller owns. A search that expands millions of
// nodes then allocates nothing per child once that storage is warm: each
// child board lives in the caller's Slab, and the interface value that
// holds a pointer to it needs no allocation of its own.
//
// Validity: a child is valid only while its storage is held. The caller
// takes a mark (Slab.Mark) before AppendChildren and, once it no longer
// reads the children, releases the slab to that mark (Slab.Release); the
// storage is then reused by later calls. A caller that keeps a child beyond
// that point must use Children instead. The same rule applies to every
// position derived from such a child.
type Expander interface {
	// AppendChildren appends the position's children to dst, in the order
	// Children returns them, and returns the extended slice. The children
	// have the same values, hashes and children as Children's, but their
	// dynamic types are pointers into slab.
	AppendChildren(dst []Position, slab *Slab) []Position
}

// stackChunk is the smallest chunk a Stack allocates. A serial search keeps
// a few hundred values live at its deepest, so one or two chunks serve it.
const stackChunk = 256

// Stack is chunked storage for values of type T, handed out in contiguous
// runs and released in stack order. Values never move once handed out, so
// pointers to them stay valid until they are released. Released chunks are
// kept and reused. The zero value is empty and ready to use. A Stack is not
// safe for concurrent use.
type Stack[T any] struct {
	chunks [][]T
	top    int // index of the chunk runs are taken from
	n      int // values handed out from chunks[top]
}

// StackMark is a point in a Stack's (or a Slab's) allocation history,
// returned by Mark and restored by Release.
type StackMark struct{ top, n int }

// Take returns a run of k contiguous values. Their contents are whatever
// the storage last held: the caller overwrites them.
func (s *Stack[T]) Take(k int) []T {
	if len(s.chunks) == 0 || s.n+k > len(s.chunks[s.top]) {
		s.next(k)
	}
	run := s.chunks[s.top][s.n : s.n+k : s.n+k]
	s.n += k
	return run
}

// next moves to the next chunk that can hold a run of k, reusing a released
// chunk when it is large enough.
func (s *Stack[T]) next(k int) {
	if len(s.chunks) > 0 {
		s.top++
	}
	s.n = 0
	switch {
	case s.top == len(s.chunks):
		s.chunks = append(s.chunks, make([]T, max(stackChunk, k)))
	case len(s.chunks[s.top]) < k:
		s.chunks[s.top] = make([]T, k)
	}
}

// Mark returns the current top of the stack.
func (s *Stack[T]) Mark() StackMark { return StackMark{s.top, s.n} }

// Release frees every value handed out since m was taken. Marks must be
// released in the reverse order they were taken.
func (s *Stack[T]) Release(m StackMark) { s.top, s.n = m.top, m.n }

// empty reports whether no value is handed out.
func (s *Stack[T]) empty() bool { return s.top == 0 && s.n == 0 }

// stacker is the type-free view of a Stack a Slab needs.
type stacker interface {
	Mark() StackMark
	Release(StackMark)
	empty() bool
}

// Slab is the storage an Expander writes child boards into: a Stack of the
// board type in use, with the Stacks of other board types kept empty and
// warm, so a Slab that serves several games in turn (a pooled searcher's)
// allocates nothing once each has been seen. The zero value is ready to
// use. A Slab is not safe for concurrent use.
type Slab struct {
	cur  stacker   // the Stack of the board type in use; nil before first use
	idle []stacker // empty Stacks of other board types
}

// Mark returns the slab's current top.
func (s *Slab) Mark() StackMark {
	if s.cur == nil {
		return StackMark{}
	}
	return s.cur.Mark()
}

// Release frees every board handed out since m was taken, invalidating the
// positions that point at them. Marks must be released in the reverse
// order they were taken.
func (s *Slab) Release(m StackMark) {
	if s.cur != nil {
		s.cur.Release(m)
	}
}

// Alloc returns storage for k boards of type T from s, for an Expander to
// fill; their contents are unspecified. The board type in use changes only
// while no board is handed out, so every mark stays meaningful. Should a
// position's children be of a type other than the one holding live boards,
// Alloc allocates them on the heap instead.
func Alloc[T any](s *Slab, k int) []T {
	st, ok := s.cur.(*Stack[T])
	if !ok {
		if st = use[T](s); st == nil {
			return make([]T, k)
		}
	}
	return st.Take(k)
}

// Boxed returns kids as positions, one boxed value each, or nil when there
// are none: Children for a game whose move rules generate value boards.
func Boxed[T Position](kids []T) []Position {
	if len(kids) == 0 {
		return nil
	}
	out := make([]Position, len(kids))
	for i, k := range kids {
		out[i] = k
	}
	return out
}

// AppendStored appends kids to dst as pointers to copies stored in slab:
// AppendChildren for a game whose move rules generate value boards.
func AppendStored[T any, P interface {
	*T
	Position
}](dst []Position, slab *Slab, kids []T) []Position {
	boards := Alloc[T](slab, len(kids))
	copy(boards, kids)
	for i := range boards {
		dst = append(dst, P(&boards[i]))
	}
	return dst
}

// use makes the Stack of type T the slab's current one, when no board of
// the current type is live, and returns it; otherwise it returns nil.
func use[T any](s *Slab) *Stack[T] {
	if s.cur != nil {
		if !s.cur.empty() {
			return nil
		}
		s.idle = append(s.idle, s.cur)
	}
	for i, st := range s.idle {
		if t, ok := st.(*Stack[T]); ok {
			s.idle[i] = s.idle[len(s.idle)-1]
			s.idle = s.idle[:len(s.idle)-1]
			s.cur = t
			return t
		}
	}
	t := new(Stack[T])
	s.cur = t
	return t
}

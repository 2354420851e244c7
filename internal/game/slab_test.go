package game

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// keyedOrder is StaticOrder's former implementation, the reference for the
// in-place sort: a keyed copy sorted with SortStableFunc into a new slice.
func keyedOrder(children []Position) []Position {
	type kv struct {
		p Position
		v Value
	}
	keys := make([]kv, len(children))
	for i, c := range children {
		keys[i] = kv{p: c, v: c.Value()}
	}
	slices.SortStableFunc(keys, func(a, b kv) int { return cmp.Compare(a.v, b.v) })
	out := make([]Position, len(children))
	for i, k := range keys {
		out[i] = k.p
	}
	return out
}

// labeled is a position whose identity survives the sort, so equal values
// show whether their order was kept.
type labeled struct {
	v  Value
	id int
}

func (l *labeled) Children() []Position { return nil }
func (l *labeled) Value() Value         { return l.v }

// TestStaticOrderInPlaceMatchesKeyed: the in-place sort returns its input
// slice, permuted exactly as the keyed reference permutes it, on random
// inputs with many ties and on both sides of the stack key buffer.
func TestStaticOrderInPlaceMatchesKeyed(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	o := StaticOrder{MaxPly: 5}
	for trial := 0; trial < 500; trial++ {
		n := 2 + r.Intn(2*orderKeys)
		kids := make([]Position, n)
		for i := range kids {
			kids[i] = &labeled{v: Value(r.Intn(1 + n/4)), id: i}
		}
		want := keyedOrder(kids)
		got := o.Order(kids, 0)
		if &got[0] != &kids[0] {
			t.Fatalf("n=%d: Order returned a new slice", n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: position %d is child %d, keyed sort puts child %d there",
					n, i, got[i].(*labeled).id, want[i].(*labeled).id)
			}
		}
	}
}

// TestStaticOrderAllocFree pins the in-place sort at zero allocations for a
// branching factor within the stack key buffer.
func TestStaticOrderAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	kids := make([]Position, 30)
	for i := range kids {
		kids[i] = &labeled{v: Value(r.Intn(10)), id: i}
	}
	o := StaticOrder{MaxPly: 5}
	allocs := testing.AllocsPerRun(100, func() {
		r.Shuffle(len(kids), func(i, j int) { kids[i], kids[j] = kids[j], kids[i] })
		o.Order(kids, 0)
	})
	if allocs != 0 {
		t.Fatalf("StaticOrder.Order made %.1f allocations per call, want 0", allocs)
	}
}

// TestStackReleaseInStackOrder: runs are contiguous, values never move while
// handed out, a released run is handed out again, and a run longer than a
// chunk gets a chunk of its own.
func TestStackReleaseInStackOrder(t *testing.T) {
	var s Stack[int]
	base := s.Mark()
	a := s.Take(3)
	for i := range a {
		a[i] = i + 1
	}
	pa := &a[0]
	m := s.Mark()
	for i := 0; i < 3*stackChunk; i++ { // spills into later chunks
		s.Take(5)[0] = -1
	}
	big := s.Take(2*stackChunk + 1)
	big[len(big)-1] = 7
	if &a[0] != pa || a[0] != 1 || a[2] != 3 {
		t.Fatal("a run moved or was overwritten while handed out")
	}
	s.Release(m)
	b := s.Take(1)
	if &b[0] != &s.chunks[0][3] {
		t.Fatal("a released run was not handed out again")
	}
	s.Release(base)
	if !s.empty() {
		t.Fatal("stack not empty after releasing to its first mark")
	}
	if c := s.Take(3); &c[0] != pa {
		t.Fatal("released chunks are not reused")
	}
}

// TestSlabWarmAllocFree: once warm, taking and releasing boards allocates
// nothing, also when the slab alternates between board types.
func TestSlabWarmAllocFree(t *testing.T) {
	type boardA struct{ x, y uint64 }
	type boardB struct{ p *int }
	var slab Slab
	cycle := func() {
		for _, k := range []int{7, 40, 300} {
			m := slab.Mark()
			a := Alloc[boardA](&slab, k)
			a[k-1] = boardA{1, 2}
			slab.Release(m)
			m = slab.Mark()
			Alloc[boardB](&slab, k)
			slab.Release(m)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warm slab made %.1f allocations per cycle, want 0", allocs)
	}
}

// TestSlabOtherTypeWhileLive: a board type other than the one holding live
// boards gets heap storage, and the live boards are not disturbed.
func TestSlabOtherTypeWhileLive(t *testing.T) {
	type boardA struct{ x int }
	type boardB struct{ y int }
	var slab Slab
	m := slab.Mark()
	a := Alloc[boardA](&slab, 2)
	a[0], a[1] = boardA{1}, boardA{2}
	b := Alloc[boardB](&slab, 3)
	b[0], b[2] = boardB{9}, boardB{9}
	a2 := Alloc[boardA](&slab, 1)
	a2[0] = boardA{3}
	st, ok := slab.cur.(*Stack[boardA])
	if !ok || a[0].x != 1 || a[1].x != 2 || &a2[0] != &st.chunks[0][2] {
		t.Fatal("live boards disturbed, or the type in use left its stack")
	}
	slab.Release(m)
	if slab.cur != st || !st.empty() {
		t.Fatal("release did not empty the stack in use")
	}
	Alloc[boardB](&slab, 1)
	if _, ok := slab.cur.(*Stack[boardB]); !ok {
		t.Fatal("an empty slab did not switch to the requested board type")
	}
}

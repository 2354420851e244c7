package game

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestWindowChild(t *testing.T) {
	w := FullWindow()
	c := w.Child(-Inf)
	if c.Alpha != -Inf || c.Beta != Inf {
		t.Fatalf("full window child = %+v", c)
	}
	w = Window{Alpha: -5, Beta: 10}
	c = w.Child(3) // running value above alpha
	if c.Alpha != -10 || c.Beta != -3 {
		t.Fatalf("child = %+v, want (-10,-3)", c)
	}
	c = w.Child(-7) // running value below alpha: alpha dominates
	if c.Alpha != -10 || c.Beta != 5 {
		t.Fatalf("child = %+v, want (-10,5)", c)
	}
}

func TestWindowPredicates(t *testing.T) {
	w := Window{Alpha: 0, Beta: 4}
	if !w.Contains(2) || w.Contains(0) || w.Contains(4) {
		t.Fatal("Contains is not strict-interior")
	}
	if w.Empty() {
		t.Fatal("non-empty window reported empty")
	}
	if !(Window{Alpha: 3, Beta: 3}).Empty() || !(Window{Alpha: 4, Beta: 3}).Empty() {
		t.Fatal("empty window not detected")
	}
}

func TestWindowFailSoft(t *testing.T) {
	w := Window{Alpha: 0, Beta: 4}
	for _, c := range []struct {
		v, exact Value
		want     bool
	}{
		{2, 2, true}, {2, 3, false}, // inside: exact only
		{0, -5, true}, {-3, -5, true}, {-5, -5, true}, // at or below alpha: upper bound
		{0, 1, false}, {-6, -5, false}, // below the true value
		{4, 9, true}, {7, 9, true}, {9, 9, true}, // at or above beta: lower bound
		{4, 3, false}, {10, 9, false}, // above the true value
	} {
		if got := w.FailSoft(c.v, c.exact); got != c.want {
			t.Errorf("(%d,%d).FailSoft(%d, exact %d) = %v, want %v", w.Alpha, w.Beta, c.v, c.exact, got, c.want)
		}
	}
}

// Property: Child is antitone — double negation restores ordering, and the
// child window of a narrower parent window is narrower.
func TestWindowChildMonotoneQuick(t *testing.T) {
	f := func(a8, b8, v8, v28 int8) bool {
		a, b := Value(a8), Value(b8)
		if a > b {
			a, b = b, a
		}
		v, v2 := Value(v8), Value(v28)
		if v > v2 {
			v, v2 = v2, v
		}
		w := Window{Alpha: a, Beta: b}
		c1, c2 := w.Child(v), w.Child(v2)
		// Larger running value => smaller child beta, same child alpha.
		return c1.Alpha == c2.Alpha && c2.Beta <= c1.Beta
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNegationNeverOverflows(t *testing.T) {
	for _, v := range []Value{Inf, -Inf, Inf - 1, -(Inf - 1), 0} {
		if -(-v) != v {
			t.Fatalf("negation overflow at %d", v)
		}
	}
	if NoValue >= -Inf {
		t.Fatalf("NoValue must be below -Inf")
	}
}

func TestMaxMin(t *testing.T) {
	if Max(1, 2) != 2 || Max(2, 1) != 2 || Min(1, 2) != 1 || Min(2, 1) != 1 {
		t.Fatal("Max/Min broken")
	}
}

type fakePos struct{ v Value }

func (f fakePos) Children() []Position { return nil }
func (f fakePos) Value() Value         { return f.v }

func TestStaticOrderSortsAscending(t *testing.T) {
	kids := []Position{fakePos{3}, fakePos{-1}, fakePos{2}, fakePos{-1}}
	o := StaticOrder{MaxPly: 5}
	got := o.Order(kids, 0)
	vals := []Value{got[0].Value(), got[1].Value(), got[2].Value(), got[3].Value()}
	want := []Value{-1, -1, 2, 3}
	for i := range vals {
		if vals[i] != want[i] {
			t.Fatalf("order %v, want %v", vals, want)
		}
	}
	if c := o.Cost(4, 0); c != 4 {
		t.Fatalf("cost=%d want 4", c)
	}
}

func TestStaticOrderRespectsMaxPly(t *testing.T) {
	kids := []Position{fakePos{3}, fakePos{-1}}
	o := StaticOrder{MaxPly: 2}
	got := o.Order(kids, 2)
	if got[0].Value() != 3 {
		t.Fatal("order applied at ply >= MaxPly")
	}
	if c := o.Cost(2, 2); c != 0 {
		t.Fatalf("cost=%d want 0 at ply >= MaxPly", c)
	}
	if got := o.Order(kids, 1); got[0].Value() != -1 {
		t.Fatal("order not applied at ply < MaxPly")
	}
}

func TestNaturalOrderIsIdentity(t *testing.T) {
	kids := []Position{fakePos{3}, fakePos{-1}}
	o := NaturalOrder{}
	got := o.Order(kids, 0)
	if got[0].Value() != 3 || o.Cost(2, 0) != 0 {
		t.Fatal("natural order must be a free identity")
	}
}

func TestStatsNilSafety(t *testing.T) {
	var s *Stats
	s.AddGenerated(1)
	s.AddEvaluated(1)
	s.AddSortEvals(1)
	s.AddCutoffs(1)
	s.AddRefutations(1)
	s.AddRefuteFails(1)
	s.NotePly(3)
	s.Merge(StatsSnapshot{Generated: 5})
	if snap := s.Snapshot(); snap != (StatsSnapshot{}) {
		t.Fatalf("nil stats snapshot nonzero: %+v", snap)
	}
}

func TestStatsConcurrentAccumulation(t *testing.T) {
	var s Stats
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				s.AddGenerated(1)
				s.NotePly(p*1000 + j)
			}
		}(i)
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Generated != 8000 {
		t.Fatalf("generated=%d want 8000", snap.Generated)
	}
	if snap.MaxPlySeen != 7999 {
		t.Fatalf("maxply=%d want 7999", snap.MaxPlySeen)
	}
}

func TestStatsMerge(t *testing.T) {
	var a, b Stats
	a.AddGenerated(2)
	b.AddGenerated(3)
	b.AddEvaluated(4)
	b.AddCutoffs(1)
	b.NotePly(9)
	a.Merge(b.Snapshot())
	snap := a.Snapshot()
	if snap.Generated != 5 || snap.Evaluated != 4 || snap.Cutoffs != 1 || snap.MaxPlySeen != 9 {
		t.Fatalf("merge result %+v", snap)
	}
	if snap.TotalEvals() != 4 {
		t.Fatalf("total evals %d", snap.TotalEvals())
	}
}

package tt

import (
	"testing"

	"ertree/internal/game"
)

// TestRecordClassifiesAgainstWindow: a fail-soft value is stored as an upper
// bound at or below alpha, a lower bound at or above beta and exact in
// between, under the depth-salted key; an empty window stores nothing.
func TestRecordClassifiesAgainstWindow(t *testing.T) {
	w := game.Window{Alpha: 0, Beta: 10}
	for _, c := range []struct {
		v    game.Value
		want Bound
	}{{-5, Upper}, {0, Upper}, {5, Exact}, {10, Lower}, {15, Lower}} {
		table := NewLockFree(8)
		var n Counts
		n.Record(table, 42, 3, c.v, w)
		e, ok := table.Probe(Key(42, 3), 3)
		if !ok || e.Value != c.v || e.Bound != c.want || n.Stores != 1 {
			t.Fatalf("v=%d: entry %+v ok=%v stores=%d, want bound %d", c.v, e, ok, n.Stores, c.want)
		}
	}
	table := NewLockFree(8)
	var n Counts
	n.Record(table, 42, 3, 5, game.Window{Alpha: 7, Beta: 7})
	if _, ok := table.Probe(Key(42, 3), 3); ok || n.Stores != 0 {
		t.Fatalf("empty window stored an entry (stores=%d)", n.Stores)
	}
}

// TestLookupSettlesOrNarrows: an entry settles a search when it is exact or
// a bound outside the window on its own side; a bound inside the window
// narrows it; an entry of another depth misses. Each lookup counts one
// probe, each found entry a hit, each settled search a cutoff.
func TestLookupSettlesOrNarrows(t *testing.T) {
	w := game.Window{Alpha: 0, Beta: 10}
	for _, c := range []struct {
		name    string
		v       game.Value
		b       Bound
		settles bool
		narrow  game.Window
	}{
		{"exact", 20, Exact, true, w},
		{"lower at beta", 10, Lower, true, w},
		{"lower inside", 4, Lower, false, game.Window{Alpha: 4, Beta: 10}},
		{"lower below", -3, Lower, false, w},
		{"upper at alpha", 0, Upper, true, w},
		{"upper inside", 6, Upper, false, game.Window{Alpha: 0, Beta: 6}},
		{"upper above", 30, Upper, false, w},
	} {
		table := NewLockFree(8)
		table.Store(Key(7, 2), 2, c.v, c.b)
		var n Counts
		got := w
		v, ok := n.Lookup(table, 7, 2, &got)
		if ok != c.settles || ok && v != c.v || got != c.narrow {
			t.Fatalf("%s: got (%d, %v) window %+v, want settles=%v window %+v", c.name, v, ok, got, c.settles, c.narrow)
		}
		cutoffs := int64(0)
		if c.settles {
			cutoffs = 1
		}
		if n != (Counts{Probes: 1, Hits: 1, Cutoffs: cutoffs}) {
			t.Fatalf("%s: counts %+v", c.name, n)
		}
		if _, ok := n.Lookup(table, 7, 3, &got); ok || n.Hits != 1 || n.Probes != 2 {
			t.Fatalf("%s: another depth hit (counts %+v)", c.name, n)
		}
	}
}

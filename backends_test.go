package ertree_test

import (
	"strings"
	"testing"

	"ertree"
)

// TestBackendsRegistry checks the facade exposes the three shipped backends
// and rejects unknown names with a message listing them.
func TestBackendsRegistry(t *testing.T) {
	names := ertree.Backends()
	for _, want := range []string{"er", "serial", "lazysmp"} {
		if !ertree.ValidBackend(want) {
			t.Fatalf("backend %q not registered", want)
		}
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("Backends() = %v, missing %q", names, want)
		}
	}
	if _, err := ertree.SearchWith("nosuch", ertree.TicTacToe(), 3, ertree.Config{}); err == nil {
		t.Fatal("SearchWith accepted an unknown backend")
	} else if !strings.Contains(err.Error(), "lazysmp") {
		t.Fatalf("error does not list the registered set: %v", err)
	}
}

// TestSearchWithAgreesAcrossBackends runs the same position through every
// backend via the facade and requires identical exact values — the public
// face of the invariance suite.
func TestSearchWithAgreesAcrossBackends(t *testing.T) {
	pos := ertree.Connect4()
	const depth = 7
	var want ertree.Value
	for i, name := range ertree.Backends() {
		table, err := ertree.NewSearchTable(ertree.TableLockFree, 14, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ertree.SearchWith(name, pos, depth, ertree.Config{
			Workers:     4,
			SerialDepth: 3,
			Table:       table,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Exact {
			t.Fatalf("%s: full-window search not exact", name)
		}
		if i == 0 {
			want = res.Value
			continue
		}
		if res.Value != want {
			t.Fatalf("%s: value %d, other backends found %d", name, res.Value, want)
		}
	}
}

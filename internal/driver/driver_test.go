package driver_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"ertree/internal/driver"
	"ertree/internal/game"
)

// informedSearch scripts a perfectly-informed fail-soft search: whatever the
// window, it returns the true value (fail-soft results may land outside the
// window) and the proving move. This is the best case a warm transposition
// table approaches.
func informedSearch(truth game.Value, move int) driver.Search {
	return func(w game.Window) (int, game.Value, error) {
		return move, truth, nil
	}
}

// minimalSearch scripts the least-informative legal fail-soft search: a probe
// at window {γ-1, γ} learns only which side of γ the truth is on, and the
// returned bound is as tight to γ as the contract allows (v = γ on a fail
// high, γ-1 on a fail low). This is the adversary for convergence bounds —
// every probe shrinks the envelope no more than it must.
func minimalSearch(truth game.Value, move int) driver.Search {
	return func(w game.Window) (int, game.Value, error) {
		if truth >= w.Beta {
			return move, w.Beta, nil
		}
		if truth <= w.Alpha {
			return -1, w.Alpha, nil
		}
		return move, truth, nil // interior values are exact by contract
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"aspiration", "mtdf"} {
		if !driver.Valid(name) {
			t.Fatalf("driver %q not registered", name)
		}
	}
	if driver.Valid("nosuch") {
		t.Fatal("Valid accepted an unknown name")
	}
	if _, err := driver.New("nosuch", driver.Config{}); err == nil {
		t.Fatal("unknown driver constructed")
	} else if got := err.Error(); !strings.Contains(got, "aspiration") ||
		!strings.Contains(got, "mtdf") {
		t.Fatalf("error does not name the registered set: %q", got)
	}
	names := driver.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
	if driver.Default != "aspiration" {
		t.Fatalf("default driver %q, want aspiration", driver.Default)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	driver.Register("mtdf", func(driver.Config) driver.Driver { return nil })
}

// TestResolveExactness: every driver returns the exact value and the proving
// move against both the informed and the minimal search, from first guesses
// that are right, far low, and far high.
func TestResolveExactness(t *testing.T) {
	truths := []game.Value{0, 1, -1, 37, -4200, 9999}
	guesses := []game.Value{game.NoValue, 0, -10000, 10000}
	for _, name := range driver.Names() {
		d, err := driver.New(name, driver.Config{Delta: 25})
		if err != nil {
			t.Fatal(err)
		}
		for _, truth := range truths {
			for _, prev := range guesses {
				for _, mk := range []struct {
					kind string
					mk   func(game.Value, int) driver.Search
				}{{"informed", informedSearch}, {"minimal", minimalSearch}} {
					r, err := d.Resolve(mk.mk(truth, 3), prev)
					if err != nil {
						t.Fatal(err)
					}
					if r.Value != truth {
						t.Fatalf("%s/%s: truth %d guess %d: value %d",
							name, mk.kind, truth, prev, r.Value)
					}
					if r.Move != 3 {
						t.Fatalf("%s/%s: truth %d guess %d: move %d, want the proving move 3",
							name, mk.kind, truth, prev, r.Move)
					}
				}
			}
		}
	}
}

// TestMTDFProbeBounds is the convergence property test: against the
// minimal-information adversary on random value distributions, MTD(f)'s probe
// count stays within ProbeBound (the adjacent-step allowance plus the
// bisection bound: the envelope starts 2·Inf wide and halves every bisected
// probe), never by luck. The informed search must converge in at most two
// probes regardless of the first guess.
func TestMTDFProbeBounds(t *testing.T) {
	d, err := driver.New("mtdf", driver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		truth := game.Value(rng.Intn(20001) - 10000)
		prev := game.Value(rng.Intn(20001) - 10000)
		if i%7 == 0 {
			prev = game.NoValue
		}
		r, err := d.Resolve(minimalSearch(truth, 1), prev)
		if err != nil {
			t.Fatal(err)
		}
		if r.Value != truth {
			t.Fatalf("truth %d guess %d: value %d", truth, prev, r.Value)
		}
		if r.Probes > driver.ProbeBound {
			t.Fatalf("truth %d guess %d: %d probes exceeds the bisection bound %d",
				truth, prev, r.Probes, driver.ProbeBound)
		}
		if r.Researches != 0 {
			t.Fatalf("truth %d guess %d: converged resolution reports %d re-searches",
				truth, prev, r.Researches)
		}

		ri, err := d.Resolve(informedSearch(truth, 1), prev)
		if err != nil {
			t.Fatal(err)
		}
		if ri.Value != truth || ri.Probes > 2 {
			t.Fatalf("informed: truth %d guess %d: value %d in %d probes",
				truth, prev, ri.Value, ri.Probes)
		}
	}
}

// TestMTDFAdversarialTerminates is the termination proof behind ProbeBound:
// a search that answers every probe with an arbitrary fail-soft value —
// edge-tight (v = γ or γ-1), anywhere on its side of γ, or at ±Inf, each
// answer independent of and usually contradicting the earlier ones — from
// random first guesses, NoValue included, must still end every resolution
// within ProbeBound probes and without a re-search. The greedy adversary
// always picks the edge-tight answer that leaves the wider envelope, the
// slowest any search can make the envelope close.
func TestMTDFAdversarialTerminates(t *testing.T) {
	d, err := driver.New("mtdf", driver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	between := func(lo, hi int64) game.Value { return game.Value(lo + rng.Int63n(hi-lo+1)) }
	maxSeen := 0
	for i := 0; i < 20000; i++ {
		greedy := i%4 == 0
		lower, upper := -game.Inf, game.Inf // the adversary's view of the envelope
		calls := 0
		search := func(w game.Window) (int, game.Value, error) {
			calls++
			if calls > driver.ProbeBound {
				t.Fatalf("resolution %d: probe %d exceeds ProbeBound %d", i, calls, driver.ProbeBound)
			}
			if w.Beta != w.Alpha+1 {
				t.Fatalf("resolution %d: window %+v is not a null window", i, w)
			}
			gamma := w.Beta
			var v game.Value
			high := rng.Intn(2) == 0
			if greedy {
				high = upper-gamma >= gamma-1-lower
			}
			switch kind := rng.Intn(3); {
			case greedy || kind == 0: // edge-tight
				v = gamma
				if !high {
					v = gamma - 1
				}
			case kind == 1: // anywhere on its side of γ
				if high {
					v = between(int64(gamma), int64(game.Inf))
				} else {
					v = between(-int64(game.Inf), int64(gamma)-1)
				}
			default: // the extremes
				v = game.Inf
				if !high {
					v = -game.Inf
				}
			}
			if v >= gamma && v > lower {
				lower = v
			} else if v < gamma && v < upper {
				upper = v
			}
			return rng.Intn(8), v, nil
		}
		var prev game.Value
		switch rng.Intn(4) {
		case 0:
			prev = game.NoValue
		case 1:
			prev = between(-int64(game.Inf), int64(game.Inf))
		default:
			prev = between(-1000, 1000)
		}
		r, err := d.Resolve(search, prev)
		if err != nil {
			t.Fatal(err)
		}
		if r.Probes != calls || r.Probes > driver.ProbeBound {
			t.Fatalf("resolution %d: reported %d probes for %d searches (bound %d)",
				i, r.Probes, calls, driver.ProbeBound)
		}
		if r.Researches != 0 {
			t.Fatalf("resolution %d: %d re-searches, want none", i, r.Researches)
		}
		if r.Probes > maxSeen {
			maxSeen = r.Probes
		}
	}
	t.Logf("most probes in one resolution: %d (bound %d)", maxSeen, driver.ProbeBound)
}

// TestMTDFInconsistentBoundsTerminate: a search whose answers contradict each
// other (the lossy-table hazard: an early fail-high above a later fail-low)
// must still terminate — the monotone envelope crosses and the loop exits
// rather than oscillating forever.
func TestMTDFInconsistentBoundsTerminate(t *testing.T) {
	d, err := driver.New("mtdf", driver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	search := func(w game.Window) (int, game.Value, error) {
		calls++
		if calls > driver.ProbeBound {
			t.Fatal("driver did not terminate on contradictory bounds")
		}
		if calls == 1 {
			return 2, 500, nil // fail high: claims truth >= 500
		}
		return -1, -500, nil // every later probe: claims truth <= -500
	}
	r, err := d.Resolve(search, 400)
	if err != nil {
		t.Fatal(err)
	}
	// The envelope crossed; the driver keeps the proven lower bound and its
	// witness rather than looping.
	if r.Move != 2 {
		t.Fatalf("move %d, want the fail-high witness 2", r.Move)
	}
}

// TestAspirationWindows pins the aspiration driver's window policy: an exact
// in-window first search costs no re-search; values past either edge reopen
// that half exactly once per side.
func TestAspirationWindows(t *testing.T) {
	d, err := driver.New("aspiration", driver.Config{Delta: 10})
	if err != nil {
		t.Fatal(err)
	}
	var windows []game.Window
	logged := func(inner driver.Search) driver.Search {
		return func(w game.Window) (int, game.Value, error) {
			windows = append(windows, w)
			return inner(w)
		}
	}

	// Interior value: one search, the aspiration window.
	windows = nil
	r, err := d.Resolve(logged(informedSearch(105, 0)), 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.Researches != 0 || len(windows) != 1 {
		t.Fatalf("interior value: %d researches over %d searches", r.Researches, len(windows))
	}
	if (windows[0] != game.Window{Alpha: 90, Beta: 110}) {
		t.Fatalf("aspiration window %+v, want {90 110}", windows[0])
	}

	// Fail high: the upper half reopens.
	windows = nil
	r, err = d.Resolve(logged(informedSearch(300, 0)), 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.Researches != 1 || r.Value != 300 {
		t.Fatalf("fail high: %d researches, value %d", r.Researches, r.Value)
	}
	if windows[1].Beta != game.Inf {
		t.Fatalf("fail-high reopen %+v did not lift Beta to Inf", windows[1])
	}

	// Fail low: the lower half reopens.
	windows = nil
	r, err = d.Resolve(logged(informedSearch(-300, 0)), 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.Researches != 1 || r.Value != -300 {
		t.Fatalf("fail low: %d researches, value %d", r.Researches, r.Value)
	}
	if windows[1].Alpha != -game.Inf {
		t.Fatalf("fail-low reopen %+v did not drop Alpha to -Inf", windows[1])
	}

	// No previous value: one full-window search.
	windows = nil
	if _, err := d.Resolve(logged(informedSearch(7, 0)), game.NoValue); err != nil {
		t.Fatal(err)
	}
	if len(windows) != 1 || windows[0] != game.FullWindow() {
		t.Fatalf("first iteration searched %+v, want the full window", windows)
	}
}

// TestResolveErrorPropagates: a search error (cancellation, backend failure)
// aborts the resolution on every driver.
func TestResolveErrorPropagates(t *testing.T) {
	boom := errors.New("aborted")
	for _, name := range driver.Names() {
		d, err := driver.New(name, driver.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Resolve(func(game.Window) (int, game.Value, error) {
			return -1, 0, boom
		}, 0); !errors.Is(err, boom) {
			t.Fatalf("%s: error %v did not propagate", name, err)
		}
	}
}

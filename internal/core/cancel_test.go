package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"ertree/internal/game"
	"ertree/internal/randtree"
)

// mustSearch runs Search and fails the test on any error; the wrapper the
// pre-cancellation tests use now that Search reports failure instead of
// panicking.
func mustSearch(t testing.TB, pos game.Position, depth int, opt Options) Result {
	t.Helper()
	res, err := Search(pos, depth, opt)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	return res
}

// mustSimulate runs Simulate and fails the test on any error.
func mustSimulate(t testing.TB, pos game.Position, depth int, opt Options, cost CostModel) Result {
	t.Helper()
	res, err := Simulate(pos, depth, opt, cost)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	return res
}

// TestCancelMidSearch cancels a deep random-tree search shortly after it
// starts and asserts that Search returns ErrAborted promptly and that every
// worker goroutine (and the cancel watcher) has exited afterwards.
func TestCancelMidSearch(t *testing.T) {
	before := runtime.NumGoroutine()

	// Big enough that 8 workers cannot finish before the cancel fires:
	// degree 8, 12 ply is ~10^10 leaves.
	tr := &randtree.Tree{Seed: 99, Degree: 8, Depth: 12, ValueRange: 10000}
	cancel := make(chan struct{})
	opt := DefaultOptions()
	opt.Workers = 8
	opt.SerialDepth = 3
	opt.Cancel = cancel

	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Search(tr.Root(), 12, opt)
		done <- outcome{res, err}
	}()

	time.Sleep(20 * time.Millisecond)
	close(cancel)

	select {
	case out := <-done:
		if !errors.Is(out.err, ErrAborted) {
			t.Fatalf("err = %v, want ErrAborted", out.err)
		}
		if out.res.Stats.Generated == 0 {
			t.Fatal("aborted search reports no work at all")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled search did not return within 10s")
	}

	// All workers must unwind; poll because goroutine exit is asynchronous
	// with respect to wg.Wait observers.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelBeforeStart verifies that a search whose Cancel channel is
// already closed aborts without resolving the root.
func TestCancelBeforeStart(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	tr := randtree.R1()
	opt := DefaultOptions()
	opt.Workers = 4
	opt.Cancel = cancel
	// The workers may still race the watcher and finish tiny searches; use
	// a tree large enough that honoring the abort is the only fast path.
	_, err := Search(tr.Root(), tr.Depth, opt)
	if err != nil && !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted or nil", err)
	}
}

// TestSearchWithoutCancelNeverErrors pins the contract the facade relies
// on: absent a Cancel channel, Search cannot fail.
func TestSearchWithoutCancelNeverErrors(t *testing.T) {
	tr := randtree.R1()
	opt := DefaultOptions()
	opt.Workers = 4
	opt.SerialDepth = 2
	res, err := Search(tr.Root(), 6, opt)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if want := oracle(tr.Root(), 6); res.Value != want {
		t.Fatalf("value %d, want %d", res.Value, want)
	}
}

// TestRootWindowFailSoft checks the fail-soft contract of Options.RootWindow
// on both runtimes: values inside the window are exact, values at or below
// alpha are upper bounds, values at or above beta are lower bounds.
func TestRootWindowFailSoft(t *testing.T) {
	tr := &randtree.Tree{Seed: 7, Degree: 4, Depth: 7, ValueRange: 10000}
	root, depth := tr.Root(), 7
	exact := oracle(root, depth)
	windows := []game.Window{
		{Alpha: exact - 100, Beta: exact + 100}, // contains the value
		{Alpha: exact + 1, Beta: exact + 500},   // fails low
		{Alpha: exact - 500, Beta: exact},       // fails high
		{Alpha: -game.Inf, Beta: exact + 1},     // one-sided, contains
	}
	for wi, w := range windows {
		for _, workers := range []int{1, 4} {
			opt := DefaultOptions()
			opt.Workers = workers
			opt.SerialDepth = 2
			w := w
			opt.RootWindow = &w

			check := func(label string, v game.Value) {
				t.Helper()
				if !w.FailSoft(v, exact) {
					t.Fatalf("window %d (%d,%d) %s P=%d: value %d is not a fail-soft result for exact %d",
						wi, w.Alpha, w.Beta, label, workers, v, exact)
				}
			}
			res, err := Search(root, depth, opt)
			if err != nil {
				t.Fatalf("Search: %v", err)
			}
			check("real", res.Value)
			sim, err := Simulate(root, depth, opt, DefaultCostModel())
			if err != nil {
				t.Fatalf("Simulate: %v", err)
			}
			check("sim", sim.Value)
		}
	}
}

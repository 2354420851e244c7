package lazysmp_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ertree/internal/backend"
	"ertree/internal/connect4"
	"ertree/internal/game"
	"ertree/internal/lazysmp"
	"ertree/internal/randtree"
	"ertree/internal/tt"
)

func negamax(pos game.Position, depth int) game.Value {
	kids := pos.Children()
	if depth == 0 || len(kids) == 0 {
		return pos.Value()
	}
	best := -game.Inf
	for _, k := range kids {
		if v := -negamax(k, depth-1); v > best {
			best = v
		}
	}
	return best
}

// TestSearchExact pins the basic contract: the winning worker's full-window
// value is the exact negamax value and the move proves it, at several worker
// counts on one shared table.
func TestSearchExact(t *testing.T) {
	tr := &randtree.Tree{Seed: 42, Degree: 4, Depth: 7, ValueRange: 10000}
	pos, depth := tr.Root(), 6
	want := negamax(pos, depth)
	kids := pos.Children()
	for _, p := range []int{1, 2, 3, 8} {
		be := lazysmp.New(backend.Config{Workers: p, Table: tt.NewLockFree(14)})
		resp, err := be.Search(backend.Request{Pos: pos, Depth: depth, Window: game.FullWindow()})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if resp.Value != want || !resp.Exact {
			t.Fatalf("P=%d: value %d exact %v, want %d exact", p, resp.Value, resp.Exact, want)
		}
		if got := -negamax(kids[resp.Move], depth-1); got != want {
			t.Fatalf("P=%d: move %d does not prove value (%d != %d)", p, resp.Move, got, want)
		}
		if resp.Workers != p {
			t.Fatalf("P=%d: response reports %d workers", p, resp.Workers)
		}
	}
}

// TestSharedTableStress is the -race proof of the subsystem: many concurrent
// Search calls, each running 8 deepening workers, all pounding one shared
// transposition table, must keep returning the exact value. This is the
// densest table traffic the backend can generate — every worker of every
// session probes and stores the same table slots.
func TestSharedTableStress(t *testing.T) {
	tr := &randtree.Tree{Seed: 7, Degree: 4, Depth: 7, ValueRange: 10000}
	pos, depth := tr.Root(), 6
	want := negamax(pos, depth)
	table := tt.NewLockFree(12) // small table: maximum collision pressure
	be := lazysmp.New(backend.Config{Workers: 8, Table: table})
	const sessions = 6
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	vals := make([]game.Value, sessions)
	tots := make([]backend.Totals, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := be.Search(backend.Request{Pos: pos, Depth: depth, Window: game.FullWindow()})
			errs[i], vals[i], tots[i] = err, resp.Value, resp.Totals
		}(i)
	}
	wg.Wait()
	var traffic backend.Totals
	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if vals[i] != want {
			t.Fatalf("session %d: value %d, want %d", i, vals[i], want)
		}
		traffic.Add(tots[i])
	}
	if traffic.TTProbes == 0 || traffic.TTStores == 0 {
		t.Fatalf("stress ran without table traffic: %+v", traffic)
	}
}

// TestCancelAborts closes the request's cancel channel mid-search and
// requires every backend to stop promptly with ErrAborted and partial
// totals: lazysmp's workers, the serial scout and core's ER workers alike.
func TestCancelAborts(t *testing.T) {
	for _, name := range backend.Names() {
		t.Run(name, func(t *testing.T) {
			// Deep Connect Four: far too big to finish, so cancellation is
			// the only way out.
			be, err := backend.New(name, backend.Config{Workers: 4, SerialDepth: 2, Table: tt.NewLockFree(14)})
			if err != nil {
				t.Fatal(err)
			}
			cancel := make(chan struct{})
			done := make(chan struct{})
			var resp backend.Response
			start := time.Now()
			go func() {
				defer close(done)
				resp, err = be.Search(backend.Request{
					Pos:    connect4.New(),
					Depth:  40,
					Window: game.FullWindow(),
					Cancel: cancel,
				})
			}()
			time.Sleep(50 * time.Millisecond)
			close(cancel)
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("search did not abort within 10s of cancellation")
			}
			if !errors.Is(err, backend.ErrAborted) {
				t.Fatalf("err = %v, want ErrAborted", err)
			}
			if resp.Totals.Nodes == 0 {
				t.Fatal("aborted search reported no partial totals")
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("abort took %v", elapsed)
			}
		})
	}
}

// TestTerminalAndDepthZero covers the leaf contract shared with the other
// backends.
func TestTerminalAndDepthZero(t *testing.T) {
	be := lazysmp.New(backend.Config{Workers: 4})
	pos := connect4.New()
	resp, err := be.Search(backend.Request{Pos: pos, Depth: 0, Window: game.FullWindow()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Move != -1 || resp.Value != pos.Value() {
		t.Fatalf("depth-0 search: %+v", resp)
	}
}

// TestRegisteredName checks the package self-registers under "lazysmp".
func TestRegisteredName(t *testing.T) {
	be, err := backend.New("lazysmp", backend.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if be.Name() != "lazysmp" {
		t.Fatalf("Name() = %q", be.Name())
	}
}

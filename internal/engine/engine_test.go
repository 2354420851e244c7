package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ertree/internal/connect4"
	"ertree/internal/game"
	"ertree/internal/randtree"
	"ertree/internal/ttt"
)

func oracle(pos game.Position, depth int) game.Value {
	kids := pos.Children()
	if depth == 0 || len(kids) == 0 {
		return pos.Value()
	}
	best := -game.Inf
	for _, k := range kids {
		if v := -oracle(k, depth-1); v > best {
			best = v
		}
	}
	return best
}

// TestAnalyzeExactPerIteration checks that every completed iteration's value
// is the exact negamax value at its depth and the reported move proves it,
// across table/no-table and aspiration/full-window configurations.
func TestAnalyzeExactPerIteration(t *testing.T) {
	tr := &randtree.Tree{Seed: 31, Degree: 4, Depth: 7, ValueRange: 10000}
	root := tr.Root()
	kids := root.Children()
	for _, cfg := range []Config{
		{Workers: 4, SerialDepth: 2},
		{Workers: 4, SerialDepth: 2, TableBits: 14, Delta: 25},
		{Workers: 1, TableBits: 12, Delta: 1},
	} {
		e := New(cfg)
		an, err := e.Analyze(context.Background(), root, 6)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if !an.Completed || an.Depth != 6 || len(an.Iterations) != 6 {
			t.Fatalf("cfg %+v: incomplete analysis %+v", cfg, an)
		}
		for _, it := range an.Iterations {
			if want := oracle(root, it.Depth); it.Value != want {
				t.Fatalf("cfg %+v depth %d: value %d, want %d", cfg, it.Depth, it.Value, want)
			}
			if it.Move < 0 || it.Move >= len(kids) {
				t.Fatalf("cfg %+v depth %d: move %d out of range", cfg, it.Depth, it.Move)
			}
			if want := -oracle(kids[it.Move], it.Depth-1); it.Value != want {
				t.Fatalf("cfg %+v depth %d: move %d does not prove value (%d != %d)",
					cfg, it.Depth, it.Move, want, it.Value)
			}
		}
	}
}

// TestAnalyzeTicTacToeDraw pins a known game value end to end.
func TestAnalyzeTicTacToeDraw(t *testing.T) {
	e := New(Config{Workers: 4, SerialDepth: 3, TableBits: 16})
	an, err := e.Analyze(context.Background(), ttt.New(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if an.Value != 0 || !an.Completed {
		t.Fatalf("tic-tac-toe start: value %d completed %v, want draw", an.Value, an.Completed)
	}
}

// TestDeadlineReturnsDeepestCompletedMove is the time-management contract: a
// deadline that expires mid-iteration yields the previous (deepest
// completed) iteration's move with Completed=false and no error.
func TestDeadlineReturnsDeepestCompletedMove(t *testing.T) {
	e := New(Config{Workers: 4, SerialDepth: 4, TableBits: 18})
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	// Depth 40 Connect Four cannot complete; the deadline must cut it.
	an, err := e.Analyze(ctx, connect4.New(), 40)
	if err != nil {
		t.Fatalf("deadline-cut session errored: %v", err)
	}
	if an.Completed {
		t.Fatal("depth-40 Connect Four reported complete within 150ms")
	}
	if an.Depth < 1 || len(an.Iterations) != an.Depth {
		t.Fatalf("no completed iterations recorded: %+v", an)
	}
	last := an.Iterations[len(an.Iterations)-1]
	if an.Move != last.Move || an.Value != last.Value || last.Depth != an.Depth {
		t.Fatalf("analysis does not report the deepest completed iteration: %+v vs %+v", an, last)
	}
	if an.Move < 0 || an.Move >= 7 {
		t.Fatalf("move %d out of range for Connect Four", an.Move)
	}
	if stats := e.Stats(); stats.DeadlineCut != 1 {
		t.Fatalf("DeadlineCut = %d, want 1", stats.DeadlineCut)
	}
}

// TestExpiredContext covers the no-result edge: a context already expired at
// admission yields ErrNoResult (or the context error during queueing), never
// a bogus move.
func TestExpiredContext(t *testing.T) {
	e := New(Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	an, err := e.Analyze(ctx, connect4.New(), 8)
	if err == nil {
		t.Fatalf("expired context produced an analysis: %+v", an)
	}
	if !errors.Is(err, ErrNoResult) && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrNoResult or context.Canceled", err)
	}
}

// TestAdmissionControl verifies the bounded pool: with one slot occupied and
// a tiny queue timeout, the second session is rejected with ErrBusy.
func TestAdmissionControl(t *testing.T) {
	e := New(Config{Workers: 2, SerialDepth: 4, MaxConcurrent: 1, QueueTimeout: 20 * time.Millisecond})
	firstCtx, cancelFirst := context.WithCancel(context.Background())
	defer cancelFirst()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Holds the only slot until cancelled.
		_, _ = e.Analyze(firstCtx, connect4.New(), 40)
	}()
	// Wait until the first session owns the slot.
	for i := 0; ; i++ {
		if e.Stats().Active == 1 {
			break
		}
		if i > 500 {
			t.Fatal("first session never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	_, err := e.Analyze(context.Background(), connect4.New(), 4)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("second session: err = %v, want ErrBusy", err)
	}
	cancelFirst()
	<-done
	if s := e.Stats(); s.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", s.Rejected)
	}
}

// TestSharedTableAcrossSessions asserts the memory-reuse design: a second
// session on the same position answers out of the shared table, doing far
// less tree work.
func TestSharedTableAcrossSessions(t *testing.T) {
	e := New(Config{Workers: 2, SerialDepth: 2, TableBits: 16})
	pos := connect4.New().MustDrop(3, 3, 2)
	first, err := e.Analyze(context.Background(), pos, 7)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Analyze(context.Background(), pos, 7)
	if err != nil {
		t.Fatal(err)
	}
	if second.Value != first.Value || second.Move != first.Move {
		t.Fatalf("second session disagrees: %+v vs %+v", second, first)
	}
	if second.Nodes*4 > first.Nodes {
		t.Fatalf("shared table bought too little: first %d nodes, second %d", first.Nodes, second.Nodes)
	}
	if st := e.Stats(); !st.HasTable || st.TTHits == 0 {
		t.Fatalf("no table hits recorded: %+v", st)
	}
}

// TestConcurrentSessions exercises the pool and the shared table from
// parallel goroutines; run under -race this is the engine's concurrency
// proof.
func TestConcurrentSessions(t *testing.T) {
	e := New(Config{Workers: 2, SerialDepth: 2, TableBits: 14, MaxConcurrent: 4, QueueTimeout: 5 * time.Second})
	tr := &randtree.Tree{Seed: 5, Degree: 4, Depth: 6, ValueRange: 10000}
	want := oracle(tr.Root(), 5)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			an, err := e.Analyze(context.Background(), tr.Root(), 5)
			if err != nil {
				errs[i] = err
				return
			}
			if an.Value != want {
				errs[i] = errors.New("wrong value")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	if s := e.Stats(); s.Completed != 8 {
		t.Fatalf("Completed = %d, want 8", s.Completed)
	}
}

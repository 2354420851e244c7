// Package lazysmp implements the shared-hash-table parallel search of the
// Crafty/Lazy-SMP lineage behind the backend seam: N independent
// iterative-deepening workers that coordinate through nothing but the shared
// transposition table. Each worker runs the same serial scout the "serial"
// backend uses (backend.TTScout), but from a skewed starting depth, with a
// skewed aspiration window on warm-up iterations and a rotated root move
// order, so the workers explore the tree in different orders and seed the
// table for one another. The first worker to finish the target depth under
// the request window wins; the rest are aborted cooperatively.
//
// This is the architecture the 1990 ER paper never got to compare against —
// no work queue, no speculation bookkeeping, no e-node protocol; all
// parallelism emerges from table sharing. The backend registers itself as
// "lazysmp"; import this package for side effects to enable it.
package lazysmp

import (
	"sort"
	"sync"

	"ertree/internal/backend"
	"ertree/internal/game"
)

func init() { backend.Register("lazysmp", New) }

// Backend is the Lazy-SMP search scheduler. Zero coordination state lives on
// the value, so one Backend serves concurrent searches.
type Backend struct {
	cfg backend.Config
}

// New builds a Lazy-SMP backend; fewer than one worker is clamped to one
// (a single worker degenerates to the serial backend with extra warm-up
// iterations).
func New(cfg backend.Config) backend.Backend {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	return &Backend{cfg: cfg}
}

// Name returns "lazysmp".
func (b *Backend) Name() string { return "lazysmp" }

// warmDelta is the base half-width of a warm-up aspiration window; worker id
// widens it so the helpers probe different slices of the score space.
const warmDelta = 24

// Search runs the worker pool and returns the first finisher's result. The
// returned Totals are total work summed across all workers — for wall-clock
// comparisons the caller should look at elapsed time, not node counts,
// because Lazy-SMP deliberately duplicates work to fill the table.
func (b *Backend) Search(req backend.Request) (backend.Response, error) {
	kids := req.Pos.Children()
	if req.Depth < 1 || len(kids) == 0 {
		return backend.LeafResponse(req), nil
	}

	// stop aborts every worker: closed by the first finisher and, through the
	// forwarder below, by the caller's Cancel.
	stop := make(chan struct{})
	var once sync.Once
	halt := func() { once.Do(func() { close(stop) }) }
	if req.Cancel != nil {
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-req.Cancel:
				halt()
			case <-stop:
			case <-done:
			}
		}()
	}

	var (
		mu     sync.Mutex
		tot    backend.Totals
		winner *backend.RootResult
	)
	var wg sync.WaitGroup
	for id := 0; id < b.cfg.Workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r, wtot, won := b.worker(id, kids, req, stop)
			mu.Lock()
			tot.Add(wtot)
			if won && winner == nil {
				winner = &r
			}
			mu.Unlock()
			if won {
				halt()
			}
		}(id)
	}
	wg.Wait()

	resp := backend.Response{
		Move:    -1,
		Totals:  tot,
		Workers: b.cfg.Workers,
	}
	if winner == nil {
		// No worker reached the target depth: only possible when the caller
		// cancelled (workers otherwise run to completion).
		return resp, backend.ErrAborted
	}
	resp.Value = winner.Value
	resp.Move = winner.Move
	resp.Scores = winner.Scores
	resp.Exact = req.Window.Contains(winner.Value)
	return resp, nil
}

// worker runs one deepening searcher: depths start at 1+(id&1) (clamped to
// the target) and advance by one, warm-up depths under a per-worker
// aspiration window, the target depth under the request window. It reports
// the target-depth root result and whether it got there before being stopped.
func (b *Backend) worker(id int, kids []game.Position, req backend.Request, stop <-chan struct{}) (backend.RootResult, backend.Totals, bool) {
	var tot backend.Totals
	sc := &backend.TTScout{
		Order:  b.cfg.Order,
		Table:  b.cfg.Table,
		Cancel: stop,
		Totals: &tot,
	}
	order := rotatedOrder(req.RootOrder, len(kids), id)
	prev := game.NoValue
	start := 1 + (id & 1)
	if start > req.Depth {
		start = req.Depth
	}
	for d := start; d <= req.Depth; d++ {
		w := req.Window
		if d < req.Depth {
			w = warmWindow(prev, id)
		}
		r, err := backend.RootScout(kids, d, w, order, sc.Search)
		if err != nil {
			return backend.RootResult{}, tot, false // stopped: a peer won or the caller cancelled
		}
		prev = r.Value
		order = reorder(order, r.Scores)
		if d == req.Depth {
			return r, tot, true
		}
	}
	return backend.RootResult{}, tot, false
}

// warmWindow is the aspiration window of a warm-up iteration: full for the
// first iteration and for worker 0 (which must stay a sound reference on its
// own), and a band around the worker's previous value otherwise, widened
// with the worker id so helpers fail in different directions and store
// complementary bounds. Warm-up results only feed move ordering and the
// table, so a failed aspiration needs no re-search.
func warmWindow(prev game.Value, id int) game.Window {
	if id == 0 || prev == game.NoValue {
		return game.FullWindow()
	}
	delta := game.Value(warmDelta * id)
	a, bta := prev-delta, prev+delta
	if a < -game.Inf {
		a = -game.Inf
	}
	if bta > game.Inf {
		bta = game.Inf
	}
	if a >= bta {
		return game.FullWindow()
	}
	return game.Window{Alpha: a, Beta: bta}
}

// rotatedOrder diversifies the root move order per worker: everyone keeps the
// driver's best candidate first (abandoning it costs real time), but the tail
// is rotated by the worker id so the helpers refute different moves first and
// their bounds land in the table before the winner needs them.
func rotatedOrder(base []int, n, id int) []int {
	order := make([]int, n)
	if base != nil {
		copy(order, base)
	} else {
		for i := range order {
			order[i] = i
		}
	}
	if id == 0 || n < 3 {
		return order
	}
	tail := order[1:]
	k := id % len(tail)
	rotated := append(append(make([]int, 0, len(tail)), tail[k:]...), tail[:k]...)
	copy(tail, rotated)
	return order
}

// reorder sorts the worker's private root order by the latest iteration's
// scores, best first; unvisited children (game.NoValue) sink to the back
// because NoValue is below every real value.
func reorder(order []int, scores []game.Value) []int {
	out := append(make([]int, 0, len(order)), order...)
	sort.SliceStable(out, func(i, j int) bool { return scores[out[i]] > scores[out[j]] })
	return out
}

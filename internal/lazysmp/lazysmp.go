// Package lazysmp implements the shared-hash-table parallel search of the
// Crafty/Lazy-SMP lineage behind the backend seam: N independent
// iterative-deepening workers that coordinate through nothing but the shared
// transposition table. Each worker deepens with the "serial" backend
// (serial.PVSRoot, expanding the root in its own pooled store), but from a
// skewed starting depth, with a skewed aspiration window on warm-up
// iterations and a rotated root move order, so the workers explore the tree
// in different orders and seed the table for one another. The first worker
// to finish the target depth under the request window wins; the rest are
// aborted cooperatively.
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
	cfg   backend.Config
	scout backend.Backend // the serial backend every worker deepens with
}

// New builds a Lazy-SMP backend; fewer than one worker is clamped to one
// (a single worker degenerates to the serial backend with extra warm-up
// iterations).
func New(cfg backend.Config) backend.Backend {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	return &Backend{cfg: cfg, scout: backend.NewSerial(cfg)}
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
	// The root's degree sizes the workers' rotated orders. A RootOrder is a
	// permutation of the root's children, so only a request without one
	// generates them to count them.
	n := len(req.RootOrder)
	if req.RootOrder == nil {
		n = len(req.Pos.Children())
	}
	if req.Depth < 1 || n == 0 {
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
		winner *backend.Response
	)
	var wg sync.WaitGroup
	for id := 0; id < b.cfg.Workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r, won := b.worker(id, n, req, stop)
			mu.Lock()
			tot.Add(r.Totals)
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

	if winner == nil {
		// No worker reached the target depth: only possible when the caller
		// cancelled (workers otherwise run to completion).
		return backend.Response{Move: -1, Totals: tot, Workers: b.cfg.Workers}, backend.ErrAborted
	}
	resp := *winner
	resp.Totals, resp.Workers = tot, b.cfg.Workers
	return resp, nil
}

// worker runs one deepening searcher: depths start at 1+(id&1) (clamped to
// the target) and advance by one, warm-up depths under a per-worker
// aspiration window, the target depth under the request window. It reports
// its last response, with the totals of every iteration, and whether that is
// the target depth's, reached before the worker was stopped.
func (b *Backend) worker(id, n int, req backend.Request, stop <-chan struct{}) (backend.Response, bool) {
	var tot backend.Totals
	order := rotatedOrder(req.RootOrder, n, id)
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
		r, err := b.scout.Search(backend.Request{Pos: req.Pos, Depth: d, Window: w, RootOrder: order, Cancel: stop})
		tot.Add(r.Totals)
		r.Totals = tot
		if err != nil {
			return r, false // stopped: a peer won or the caller cancelled
		}
		prev = r.Value
		order = reorder(order, r.Scores)
		if d == req.Depth {
			return r, true
		}
	}
	return backend.Response{Totals: tot}, false
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

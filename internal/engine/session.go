package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"ertree/internal/backend"
	"ertree/internal/core"
	"ertree/internal/driver"
	"ertree/internal/game"
)

// Iteration reports one completed depth of a session's iterative deepening.
type Iteration struct {
	Depth      int        // search depth of this iteration
	Move       int        // best child index (natural move order)
	Value      game.Value // root value, from the side to move
	Researches int        // wide-window re-searches (aspiration reopens)
	Probes     int        // null-window probes (mtdf driver)
	Nodes      int64      // tree nodes generated during this iteration
	// HeapPeak is the largest problem-heap occupancy sampled during this
	// iteration; zero unless the session runs with hooks armed
	// (SessionOptions.Trace or Record).
	HeapPeak int
	Elapsed  time.Duration
}

// Analysis is the result of a session: the best move found, at the deepest
// depth the deadline allowed, with the full per-iteration history.
type Analysis struct {
	// Label echoes SessionOptions.Label (e.g. the request id a server
	// session belongs to), so logs, traces, and flight reports correlate.
	Label string
	// Backend names the search backend that served the session; Driver names
	// the root driver that resolved its iterations.
	Backend    string
	Driver     string
	Move       int        // best child index (natural move order)
	Value      game.Value // value of the deepest completed iteration
	Depth      int        // deepest completed iteration
	Completed  bool       // the session reached the full requested depth
	Nodes      int64
	Elapsed    time.Duration
	Iterations []Iteration
	// Trace holds the merged per-worker telemetry of every core search the
	// session ran, on one common time axis anchored at session start.
	// Populated when the session armed hooks (SessionOptions.Trace records
	// spans for WriteWorkerTrace; SessionOptions.Record fills each worker's
	// Events for internal/flight).
	Trace []core.WorkerTelemetry
}

// Analyze runs one analysis session: iterative deepening from depth 1 to
// maxDepth, each iteration steered by an aspiration window around the
// previous value and searched under fail-soft bounds by the engine's
// configured search backend (parallel ER by default), probing and feeding
// the engine's shared transposition table.
//
// The session honors ctx cooperatively: when the deadline expires
// mid-iteration the in-flight searches abort, the partial iteration is
// discarded, and Analyze returns the deepest completed iteration's move with
// Completed=false and a nil error — a best-move-so-far is a successful
// answer for a time-managed engine. Only when not even depth 1 finished does
// it return ErrNoResult.
func (e *Engine) Analyze(ctx context.Context, pos game.Position, maxDepth int) (*Analysis, error) {
	return e.AnalyzeSession(ctx, pos, maxDepth, SessionOptions{})
}

// AnalyzeTrace is Analyze with worker-span tracing armed: every core search
// of the session runs with telemetry hooks on a shared epoch, and the
// returned Analysis carries the merged per-worker timeline in Trace. Costs a
// clock read and a span record per core task; use for on-demand diagnosis,
// not as the default serving path.
func (e *Engine) AnalyzeTrace(ctx context.Context, pos game.Position, maxDepth int) (*Analysis, error) {
	return e.AnalyzeSession(ctx, pos, maxDepth, SessionOptions{Trace: true})
}

// SessionOptions configures one analysis session's observability; the zero
// value is the plain serving path (no hooks, no streaming).
type SessionOptions struct {
	// Trace records per-task worker spans for Analysis.Trace (the Perfetto
	// timeline path of AnalyzeTrace).
	Trace bool
	// Record arms the core flight recorder with a per-worker ring of this
	// capacity; the recorded events land in Analysis.Trace[i].Events, ready
	// for internal/flight.Build. Zero disables recording.
	Record int
	// Label tags the session (Analysis.Label) with a caller-side
	// correlation id — the server passes its X-Request-ID so one request's
	// access-log line, worker trace, and flight report share a key.
	Label string
	// OnIteration, when non-nil, is called after each completed deepening
	// iteration from the session goroutine (never concurrently). Servers
	// stream these as progress events; a slow callback delays the next
	// iteration, not the search inside the current one.
	OnIteration func(Iteration)
	// Backend overrides the engine's configured search backend for this
	// session ("er", "serial", "lazysmp"); empty uses the engine default. An
	// unregistered name fails the session with ErrUnknownBackend before
	// admission.
	Backend string
	// Driver overrides the engine's configured root driver for this session
	// ("aspiration" or "mtdf"); empty uses the engine default. An
	// unregistered name fails the session with ErrUnknownDriver before
	// admission.
	Driver string
}

// AnalyzeSession is Analyze with per-session observability options.
func (e *Engine) AnalyzeSession(ctx context.Context, pos game.Position, maxDepth int, opts SessionOptions) (*Analysis, error) {
	if maxDepth < 1 {
		return nil, fmt.Errorf("engine: maxDepth %d, must be at least 1", maxDepth)
	}
	kids := pos.Children()
	if len(kids) == 0 {
		return nil, ErrNoMoves
	}
	be, err := e.backendFor(opts.Backend)
	if err != nil {
		// Bad input, not capacity: fail before admission so the rejection
		// counters keep meaning "the engine was busy".
		return nil, err
	}
	drv, err := e.driverFor(opts.Driver)
	if err != nil {
		return nil, err
	}
	if err := e.acquire(ctx); err != nil {
		e.cfg.Telemetry.recordRejection(e.name())
		return nil, err
	}
	defer e.release()
	e.admit(be.Name(), drv.Name())
	// Register with the stall watchdog: the self-monitor fires when a session
	// makes no iteration progress within a multiple of its budget. Disabled
	// (the default), this whole block is one nil test.
	beat := -1
	if e.cfg.Obs != nil {
		budget := time.Duration(0)
		if dl, ok := ctx.Deadline(); ok {
			budget = time.Until(dl)
		}
		beat = e.cfg.Obs.SessionStart(opts.Label, budget)
		defer e.cfg.Obs.SessionEnd(beat)
	}
	e.cfg.Telemetry.recordBackendSession(e.name(), be.Name())
	e.cfg.Telemetry.recordDriverSession(e.name(), drv.Name())
	if e.table != nil {
		// One admitted session = one aging tick: entries untouched since
		// earlier sessions lose replacement priority.
		e.table.NewSearch()
	}

	start := time.Now()
	s := &session{
		e:      e,
		be:     be,
		drv:    drv,
		pos:    pos,
		cancel: ctx.Done(),
		order:  make([]int, len(kids)),
		scores: make([]game.Value, len(kids)),
		prev:   game.NoValue,
	}
	if opts.Trace || opts.Record > 0 {
		s.trace = newTraceCollector()
		// All of the session's searches share the session-start epoch, so
		// their spans land on one time axis and merge into per-worker
		// tracks. The collector also tracks peak heap occupancy for the
		// per-iteration progress reports.
		s.hooks = &core.Hooks{
			Epoch:        start,
			Spans:        opts.Trace,
			HeapEvery:    8,
			Events:       opts.Record,
			OnWorkerDone: s.observeWorker,
		}
	}
	for i := range s.order {
		s.order[i] = i
	}

	an := &Analysis{Label: opts.Label, Backend: be.Name(), Driver: drv.Name(), Move: -1}
	researches, probes := 0, 0
	for depth := 1; depth <= maxDepth; depth++ {
		if ctx.Err() != nil {
			break
		}
		it, err := s.iterate(depth)
		researches += it.Researches
		probes += it.Probes
		if err != nil {
			if errors.Is(err, core.ErrAborted) {
				break // deadline hit mid-iteration; keep what we have
			}
			s.finish(outcomeFailed, time.Since(start), an.Depth, researches, probes)
			return nil, err
		}
		an.Iterations = append(an.Iterations, it)
		an.Move, an.Value, an.Depth = it.Move, it.Value, it.Depth
		s.prev = it.Value
		e.mu.Lock()
		e.counts.Iterations++
		e.mu.Unlock()
		if beat >= 0 {
			e.cfg.Obs.SessionProgress(beat)
		}
		if opts.OnIteration != nil {
			opts.OnIteration(it)
		}
		// Search the previous best first next iteration, then the rest by
		// their latest (bound) scores: the engine's own move ordering.
		s.reorder()
	}
	an.Elapsed = time.Since(start)
	an.Nodes = s.tot.Nodes
	if s.trace != nil {
		an.Trace = s.trace.workers()
	}
	if len(an.Iterations) == 0 {
		s.finish(outcomeNoResult, an.Elapsed, 0, researches, probes)
		return nil, ErrNoResult
	}
	an.Completed = an.Depth == maxDepth
	outcome := outcomeDeadlineCut
	if an.Completed {
		outcome = outcomeCompleted
	}
	s.finish(outcome, an.Elapsed, an.Depth, researches, probes)
	return an, nil
}

// finish folds the session's outcome and accumulated totals into the
// engine's counters and its Telemetry. Called exactly once per admitted
// session, on every exit path.
func (s *session) finish(outcome string, elapsed time.Duration, depth, researches, probes int) {
	e := s.e
	e.mu.Lock()
	c := &e.counts
	switch outcome {
	case outcomeCompleted:
		c.Completed++
	case outcomeFailed:
		c.Failed++
	default: // a deadline cut, with or without a completed iteration
		c.DeadlineCut++
	}
	c.Researches += int64(researches)
	c.Probes += int64(probes)
	c.Totals.Add(s.tot)
	rate := hitRate(c.TTHits, c.TTProbes)
	e.mu.Unlock()
	tel := e.cfg.Telemetry
	tel.recordSession(e.name(), outcome, elapsed, depth, researches, s.tot.Nodes)
	tel.recordDriverProbes(e.name(), s.drv.Name(), int64(probes))
	tel.recordCore(e.name(), s.tot)
	if e.table != nil {
		tel.recordTable(e.name(), e.table, rate)
	}
}

// session is the per-request state of one deepening run.
type session struct {
	e      *Engine
	be     backend.Backend // the search backend serving this session
	drv    driver.Driver   // the root driver resolving each iteration
	pos    game.Position   // the analyzed position
	cancel <-chan struct{}
	order  []int           // search order (indices into pos.Children())
	scores []game.Value    // latest root-view score per child (bounds for non-best)
	prev   game.Value      // previous iteration's value (aspiration center)
	tot    backend.Totals  // search work, folded into the engine once at finish
	hooks  *core.Hooks     // non-nil when the session is traced
	trace  *traceCollector // collects worker telemetry for Analysis.Trace

	// heapPeak is the largest sampled heap occupancy since the last
	// Iteration was cut (workers deliver concurrently; iterate swaps it out).
	heapPeak atomic.Int64
}

// observeWorker receives each finished worker's telemetry: it feeds the
// iteration-level heap-peak gauge and hands the shard to the collector.
func (s *session) observeWorker(wt core.WorkerTelemetry) {
	for _, hs := range wt.HeapSamples {
		occ := int64(hs.Primary + hs.Spec)
		for {
			cur := s.heapPeak.Load()
			if occ <= cur || s.heapPeak.CompareAndSwap(cur, occ) {
				break
			}
		}
	}
	s.trace.add(wt)
}

// iterate completes one depth by handing the fixed-depth root search to the
// session's driver: the driver decides which windows to search (one wide
// aspiration window, or a converging sequence of null-window probes) and
// returns an exact value with a proving move either way.
func (s *session) iterate(depth int) (Iteration, error) {
	it := Iteration{Depth: depth}
	start := time.Now()
	nodes0 := s.tot.Nodes
	res, err := s.drv.Resolve(func(w game.Window) (int, game.Value, error) {
		return s.searchRoot(depth, w)
	}, s.prev)
	it.Researches = res.Researches
	it.Probes = res.Probes
	if err != nil {
		return it, err
	}
	it.Move, it.Value = res.Move, res.Value
	it.Nodes = s.tot.Nodes - nodes0
	it.HeapPeak = int(s.heapPeak.Swap(0))
	it.Elapsed = time.Since(start)
	return it, nil
}

// searchRoot runs one fixed-depth search of the session's position through
// the backend: the session passes its current move ordering in and folds the
// backend's fail-soft per-child scores back into its own (the backend marks
// children it never reached with game.NoValue, which must not clobber a
// real score from an earlier iteration).
func (s *session) searchRoot(depth int, w game.Window) (bestIdx int, best game.Value, err error) {
	resp, err := s.be.Search(backend.Request{
		Pos:       s.pos,
		Depth:     depth,
		Window:    w,
		RootOrder: s.order,
		Cancel:    s.cancel,
		Hooks:     s.hooks,
	})
	s.tot.Add(resp.Totals)
	if err != nil {
		return -1, 0, err
	}
	for i, v := range resp.Scores {
		if v != game.NoValue {
			s.scores[i] = v
		}
	}
	return resp.Move, resp.Value, nil
}

// reorder sorts the search order by the latest scores, best first, keeping
// relative order stable for ties so the ordering is deterministic.
func (s *session) reorder() {
	sort.SliceStable(s.order, func(i, j int) bool {
		return s.scores[s.order[i]] > s.scores[s.order[j]]
	})
}

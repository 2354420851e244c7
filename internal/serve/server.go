// Package serve implements the erserve HTTP analysis service as a library:
// one engine per game over a shared admission pool, the single-flight answer
// cache, request instrumentation, SSE progress streaming, flight-report
// retention, and the SLO observability surface (/healthz, /stats, /metrics
// with windowed latency quantiles). cmd/erserve is a thin flag-parsing shell
// around it; cmd/erload starts an in-process instance through the same API
// when asked to bring its own server.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"ertree/internal/backend"
	"ertree/internal/checkers"
	"ertree/internal/connect4"
	"ertree/internal/driver"
	"ertree/internal/engine"
	"ertree/internal/flight"
	"ertree/internal/game"
	"ertree/internal/obs"
	"ertree/internal/othello"
	"ertree/internal/telemetry"
	"ertree/internal/tt"
	"ertree/internal/ttt"
)

// gameSpec describes one servable game: its initial position and the move
// ordering its searches should use.
type gameSpec struct {
	root  func() game.Position
	order game.Orderer
}

// games registers the built-in games. Positions are addressed by the list of
// child indices (natural move order) leading from the initial position.
var games = map[string]gameSpec{
	"ttt":      {root: func() game.Position { return ttt.New() }},
	"connect4": {root: func() game.Position { return connect4.New() }},
	"othello":  {root: func() game.Position { return othello.Start() }, order: game.StaticOrder{MaxPly: 5}},
	"checkers": {root: func() game.Position { return checkers.Start() }, order: game.StaticOrder{MaxPly: 5}},
}

// Config configures a server; flag parsing in main fills it.
type Config struct {
	Workers       int           // parallel-ER workers per search
	Backend       string        // default search backend; empty means the engine default
	Driver        string        // default root driver; empty means the engine default
	SerialDepth   int           // serial work grain
	Sharded       bool          // per-worker work-stealing problem heap
	TableBits     int           // per-game shared transposition table size
	TableImpl     string        // shared-table implementation: empty or "lockfree", the only one
	CacheSize     int           // completed answers retained by the single-flight cache; 0 disables
	MaxConcurrent int           // server-wide concurrent sessions
	QueueTimeout  time.Duration // admission-queue wait before 503
	MaxDepth      int           // cap on requested depth
	DefaultBudget time.Duration // search budget when the client sends none
	WindowTick    time.Duration // windowed-quantile snapshot interval; 0 = DefaultWindowTick
	WindowSlots   int           // snapshots retained per window; 0 = DefaultWindowSlots
	Logger        *slog.Logger  // structured logs; nil logs JSON to stderr

	// ObsSample enables the self-monitor (internal/obs) and sets its gauge
	// sampling interval; 0 disables it entirely — no sampler goroutine, no
	// ring, one nil check per session. ObsRing sizes the retained sample
	// ring (0 = obs.DefaultRingSlots). ObsDetectors overrides the anomaly
	// detector set (nil = obs.DefaultDetectors) — tuning and tests only.
	ObsSample    time.Duration
	ObsRing      int
	ObsDetectors []obs.Detector
}

// server is the HTTP analysis service: one engine per game, all sharing one
// session-slot pool, so the whole server runs at most MaxConcurrent searches
// with queued admission. All engines record into one telemetry registry,
// exposed at /metrics alongside the server's own request instrumentation.
type Server struct {
	cfg     Config
	engines map[string]*engine.Engine
	pool    engine.Pool
	start   time.Time
	reg     *telemetry.Registry
	metrics *httpMetrics
	log     *slog.Logger
	ids     *requestIDs
	flights *flightRing
	cache   *answerCache
	slo     *sloTracker
	obs     *obs.Monitor // self-monitor; nil when Config.ObsSample is 0

	// Resolved default backend/driver names, cached for access-log
	// attribution on requests that don't override them.
	defaultBackend string
	defaultDriver  string
}

func New(cfg Config) *Server {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 32
	}
	if cfg.DefaultBudget <= 0 {
		cfg.DefaultBudget = 5 * time.Second
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	pool := engine.NewPool(cfg.MaxConcurrent)
	reg := telemetry.NewRegistry()
	s := &Server{
		cfg:     cfg,
		engines: make(map[string]*engine.Engine),
		pool:    pool,
		start:   time.Now(),
		reg:     reg,
		metrics: newHTTPMetrics(reg),
		log:     log,
		ids:     newRequestIDs(),
		flights: newFlightRing(),
		cache:   newAnswerCache(cfg.CacheSize),
	}
	s.slo = newSLOTracker(reg, s.metrics, cfg.WindowTick, cfg.WindowSlots)
	s.obs = newObsMonitor(cfg, s)
	tel := engine.NewTelemetry(reg)
	for name, spec := range games {
		s.engines[name] = engine.New(engine.Config{
			Name:         name,
			Backend:      cfg.Backend,
			Driver:       cfg.Driver,
			Workers:      cfg.Workers,
			SerialDepth:  cfg.SerialDepth,
			Sharded:      cfg.Sharded,
			Order:        spec.order,
			TableBits:    cfg.TableBits,
			TableImpl:    cfg.TableImpl,
			Delta:        32,
			Pool:         pool,
			QueueTimeout: cfg.QueueTimeout,
			Telemetry:    tel,
			Obs:          s.obs,
		})
	}
	for _, e := range s.engines {
		// All engines resolve the same defaults; any one identifies them.
		s.defaultBackend = e.Backend()
		s.defaultDriver = e.Driver()
		break
	}
	if s.obs != nil {
		s.obs.SetSource(s.obsSample)
		s.obs.Start()
	}
	reg.GaugeFunc("engine_pool_capacity",
		"Session slots shared by every game engine.",
		func() float64 { return float64(cap(pool)) })
	reg.GaugeFunc("engine_pool_active",
		"Sessions currently holding a slot.",
		func() float64 { return float64(len(pool)) })
	reg.GaugeFunc("engine_pool_waiting",
		"Requests queued for a session slot across all games (admission queue depth).",
		func() float64 { return float64(s.queueDepth()) })
	reg.GaugeFunc("process_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	if s.cache != nil {
		reg.GaugeFunc("server_answer_cache_size",
			"Completed analyses retained by the single-flight answer cache.",
			func() float64 { return float64(s.cache.size()) })
		reg.GaugeFunc("server_answer_cache_hits_total",
			"Requests served from the answer cache (monotone).",
			func() float64 { return float64(s.cache.hits.Load()) })
		reg.GaugeFunc("server_answer_cache_misses_total",
			"Requests that led a new search (monotone).",
			func() float64 { return float64(s.cache.misses.Load()) })
		reg.GaugeFunc("server_answer_cache_coalesced_total",
			"Requests that waited on another request's identical search (monotone).",
			func() float64 { return float64(s.cache.coalesced.Load()) })
		reg.GaugeFunc("server_answer_cache_hit_rate",
			"Fraction of cacheable requests answered from the completed-answer LRU.",
			func() float64 { return s.cache.stats().HitRate })
	}
	return s
}

// Close releases the server's background resources (today: the self-monitor's
// sampler goroutine). Safe on a server built without obs, and idempotent.
func (s *Server) Close() {
	s.obs.Close()
}

func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/bestmove", s.handleAnalyze(false))
	mux.HandleFunc("/analyze", s.handleAnalyze(true))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/debug/flight", s.handleDebugFlight)
	mux.HandleFunc("/debug/obs", s.handleDebugObs)
	mux.HandleFunc("/debug/obs/profiles", s.handleObsProfiles)
	mux.HandleFunc("/debug/obs/profiles/", s.handleObsProfiles)
	// /metrics advances the quantile windows before exposition, so the
	// slo_latency_window_seconds gauges a scraper reads are at most one
	// scrape interval stale.
	metricsH := s.reg.Handler()
	mux.Handle("/metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.slo.maybeTick()
		metricsH.ServeHTTP(w, r)
	}))
	return s.instrument(mux)
}

// httpError is the JSON error envelope.
type httpError struct {
	Error string `json:"error"`
}

// writeJSON writes v as the indented JSON response body. Encoding errors are
// logged, not swallowed: after WriteHeader the status is already on the wire,
// so the log line (keyed by the response's request id) is the only place a
// half-written body becomes visible.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.log.Error("response encode failed",
			"id", w.Header().Get("X-Request-ID"),
			"code", code,
			"err", err.Error(),
		)
	}
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeJSON(w, code, httpError{Error: fmt.Sprintf(format, args...)})
}

// iterationJSON is one completed deepening iteration on the wire; it doubles
// as the payload of the SSE "iteration" progress events.
type iterationJSON struct {
	Depth      int   `json:"depth"`
	Move       int   `json:"move"`
	Value      int   `json:"value"`
	Researches int   `json:"researches"`
	Probes     int   `json:"probes"`
	Nodes      int64 `json:"nodes"`
	Steals     int64 `json:"steals"`
	// HeapPeak is the largest problem-heap occupancy sampled during the
	// iteration; zero unless the session recorded (stream=1 or flight=1).
	HeapPeak  int   `json:"heap_peak"`
	ElapsedMS int64 `json:"elapsed_ms"`
}

// wireIteration converts an engine iteration to its JSON form.
func wireIteration(it engine.Iteration) iterationJSON {
	return iterationJSON{
		Depth:      it.Depth,
		Move:       it.Move,
		Value:      int(it.Value),
		Researches: it.Researches,
		Probes:     it.Probes,
		Nodes:      it.Nodes,
		Steals:     it.Steals,
		HeapPeak:   it.HeapPeak,
		ElapsedMS:  it.Elapsed.Milliseconds(),
	}
}

// analysisJSON is the /bestmove and /analyze response body.
type analysisJSON struct {
	Game           string          `json:"game"`
	Backend        string          `json:"backend"`
	Driver         string          `json:"driver"`
	RequestedDepth int             `json:"requested_depth"`
	Depth          int             `json:"depth"`
	Move           int             `json:"move"`
	Value          int             `json:"value"`
	Completed      bool            `json:"completed"`
	Nodes          int64           `json:"nodes"`
	ElapsedMS      int64           `json:"elapsed_ms"`
	Iterations     []iterationJSON `json:"iterations,omitempty"`
}

// parsePosition resolves the game and walks the moves list (child indices,
// natural move order) from the initial position.
func parsePosition(q map[string][]string) (name string, pos game.Position, err error) {
	name = firstValue(q, "game")
	if name == "" {
		return "", nil, errors.New("missing game parameter")
	}
	spec, ok := games[name]
	if !ok {
		return "", nil, fmt.Errorf("unknown game %q", name)
	}
	pos = spec.root()
	movesParam := firstValue(q, "moves")
	if movesParam == "" {
		return name, pos, nil
	}
	for step, f := range strings.Split(movesParam, ",") {
		idx, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return "", nil, fmt.Errorf("moves[%d]: %q is not a child index", step, f)
		}
		kids := pos.Children()
		if idx < 0 || idx >= len(kids) {
			return "", nil, fmt.Errorf("moves[%d]: index %d out of range (%d children)", step, idx, len(kids))
		}
		pos = kids[idx]
	}
	return name, pos, nil
}

func firstValue(q map[string][]string, key string) string {
	if vs := q[key]; len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// handleAnalyze serves /bestmove and /analyze: the same session, with the
// per-iteration history included only on /analyze. On /analyze, trace=1 runs
// the session with worker-span telemetry and answers with a Chrome
// trace-object envelope ({"traceEvents": [...], "analysis": {...}}) that
// loads directly in Perfetto; stream=1 answers a server-sent-event stream of
// per-iteration progress ("iteration" events, then "done" with the full
// analysis or "error"); flight=1 runs the session with the core flight
// recorder armed and retains the resulting speculation-waste report under the
// request id for /debug/flight.
func (s *Server) handleAnalyze(includeIterations bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		name, pos, err := parsePosition(q)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		depth := 8
		if d := firstValue(q, "depth"); d != "" {
			depth, err = strconv.Atoi(d)
			if err != nil || depth < 1 {
				s.fail(w, http.StatusBadRequest, "bad depth %q", d)
				return
			}
		}
		if depth > s.cfg.MaxDepth {
			s.fail(w, http.StatusBadRequest, "depth %d exceeds the server cap %d", depth, s.cfg.MaxDepth)
			return
		}
		budget := s.cfg.DefaultBudget
		if b := firstValue(q, "budget_ms"); b != "" {
			ms, err := strconv.Atoi(b)
			if err != nil || ms < 1 {
				s.fail(w, http.StatusBadRequest, "bad budget_ms %q", b)
				return
			}
			budget = time.Duration(ms) * time.Millisecond
		}
		// backend= swaps the search backend for this request only. Unknown
		// names are a client error naming the valid set — never a silent
		// fallback to the default.
		beName := firstValue(q, "backend")
		if beName != "" && !backend.Valid(beName) {
			s.fail(w, http.StatusBadRequest, "unknown backend %q (valid: %s)", beName, backend.NamesString())
			return
		}
		// driver= swaps the root driver for this request only, under the same
		// no-silent-fallback rule.
		dName := firstValue(q, "driver")
		if dName != "" && !driver.Valid(dName) {
			s.fail(w, http.StatusBadRequest, "unknown driver %q (valid: %s)", dName, driver.NamesString())
			return
		}
		// The request is valid from here on: record which backend/driver will
		// serve it for the access-log attribution (overrides, or defaults).
		attribute(w,
			orDefault(beName, s.defaultBackend),
			orDefault(dName, s.defaultDriver))

		trace := includeIterations && firstValue(q, "trace") == "1"
		stream := includeIterations && firstValue(q, "stream") == "1"
		recordFlight := includeIterations && firstValue(q, "flight") == "1"

		// Single-flight answer cache: plain (non-trace, non-stream,
		// non-flight) requests first try the completed-answer LRU, then
		// either lead a search or coalesce onto an identical one already in
		// flight. Observability requests always run their own session — their
		// value is the per-request telemetry, not the answer.
		var fl *cacheFlight
		var cacheKey string
		flightLeader := false
		if s.cache != nil && !trace && !stream && !recordFlight {
			cacheKey = answerKey(name, firstValue(q, "moves"), depth,
				budget.Milliseconds(), beName, dName, includeIterations)
			if out, ok := s.cache.get(cacheKey); ok {
				s.writeJSON(w, http.StatusOK, out)
				return
			}
			fl, flightLeader = s.cache.join(cacheKey)
			if !flightLeader {
				select {
				case <-fl.done:
					if fl.err != nil {
						if fl.code == http.StatusServiceUnavailable {
							w.Header().Set("Retry-After", "1")
						}
						s.fail(w, fl.code, "%s", fl.err.Error())
						return
					}
					s.writeJSON(w, http.StatusOK, fl.out)
				case <-r.Context().Done():
					s.fail(w, http.StatusServiceUnavailable, "request cancelled while awaiting a coalesced search")
				}
				return
			}
		}
		// The session stops at the budget or when the client disconnects,
		// whichever comes first, and still answers with the deepest
		// completed iteration. For SSE the disconnect path is the one that
		// matters: closing the stream cancels r.Context() and with it the
		// in-flight search.
		ctx, cancel := context.WithTimeout(r.Context(), budget)
		defer cancel()

		// The middleware put the request id on the response before the
		// handler ran; threading it into the session labels its analysis,
		// trace, and flight report with the same correlation key as the
		// access-log line.
		opts := engine.SessionOptions{Trace: trace, Label: w.Header().Get("X-Request-ID"), Backend: beName, Driver: dName}
		switch {
		case recordFlight:
			opts.Record = 1 << 16
		case stream:
			// Streaming needs hooks armed for the heap-occupancy gauge in
			// the progress events; a small ring keeps the cost down.
			opts.Record = 1 << 12
		}
		var sse *sseWriter
		if stream {
			if sse = startSSE(w); sse == nil {
				s.fail(w, http.StatusInternalServerError, "connection does not support streaming")
				return
			}
			opts.OnIteration = func(it engine.Iteration) {
				sse.event("iteration", wireIteration(it))
			}
		}

		an, err := s.engines[name].AnalyzeSession(ctx, pos, depth, opts)
		if err != nil {
			code, msg := http.StatusInternalServerError, err.Error()
			switch {
			case errors.Is(err, engine.ErrBusy):
				code = http.StatusServiceUnavailable
			case errors.Is(err, engine.ErrNoMoves):
				code, msg = http.StatusUnprocessableEntity, "position is terminal: no moves to search"
			case errors.Is(err, engine.ErrNoResult):
				code, msg = http.StatusGatewayTimeout, fmt.Sprintf("budget %v expired before the first iteration completed", budget)
			case errors.Is(err, context.Canceled):
				code, msg = http.StatusServiceUnavailable, "request cancelled while queued"
			}
			if flightLeader {
				// Waiters asked the same question under the same budget;
				// they replay this outcome. Errors are never retained, so
				// the next request searches afresh.
				s.cache.settle(cacheKey, fl, analysisJSON{}, errors.New(msg), code)
			}
			if sse != nil {
				// The 200 and the event-stream header are already on the
				// wire; the error becomes the stream's terminal event.
				sse.event("error", httpError{Error: msg})
				return
			}
			if code == http.StatusServiceUnavailable && errors.Is(err, engine.ErrBusy) {
				w.Header().Set("Retry-After", "1")
			}
			s.fail(w, code, "%s", msg)
			return
		}
		s.slo.observeBackend(an.Backend, an.Elapsed)
		if recordFlight {
			s.flights.add(an.Label, flight.Build(an.Trace, flight.Options{
				Label:   an.Label,
				Workers: s.cfg.Workers,
			}))
		}

		out := analysisJSON{
			Game:           name,
			Backend:        an.Backend,
			Driver:         an.Driver,
			RequestedDepth: depth,
			Depth:          an.Depth,
			Move:           an.Move,
			Value:          int(an.Value),
			Completed:      an.Completed,
			Nodes:          an.Nodes,
			ElapsedMS:      an.Elapsed.Milliseconds(),
		}
		if includeIterations {
			for _, it := range an.Iterations {
				out.Iterations = append(out.Iterations, wireIteration(it))
			}
		}
		if flightLeader {
			s.cache.settle(cacheKey, fl, out, nil, 0)
		}
		if sse != nil {
			sse.event("done", out)
			return
		}
		if trace {
			var buf bytes.Buffer
			if err := engine.WriteWorkerTrace(&buf, "erserve "+name, an.Trace); err != nil {
				s.fail(w, http.StatusInternalServerError, "trace encode: %v", err)
				return
			}
			s.writeJSON(w, http.StatusOK, tracedAnalysisJSON{
				TraceEvents: json.RawMessage(buf.Bytes()),
				Analysis:    out,
			})
			return
		}
		s.writeJSON(w, http.StatusOK, out)
	}
}

// tracedAnalysisJSON is the trace=1 response: a Chrome trace object with the
// analysis riding along (Perfetto ignores unknown top-level keys).
type tracedAnalysisJSON struct {
	TraceEvents json.RawMessage `json:"traceEvents"`
	Analysis    analysisJSON    `json:"analysis"`
}

// queueDepth sums the engines' admission-queue occupancy: how many requests
// are waiting for one of the shared session slots right now.
func (s *Server) queueDepth() int64 {
	var n int64
	for _, e := range s.engines {
		n += e.Waiting()
	}
	return n
}

// healthzJSON is the /healthz body: enough identity and load state for a
// readiness gate (erload polls it before opening traffic) and for a human to
// tell which configuration is answering.
type healthzJSON struct {
	Status    string `json:"status"`
	UptimeMS  int64  `json:"uptime_ms"`
	Games     int    `json:"games"`
	Backend   string `json:"backend"`    // resolved default search backend
	Driver    string `json:"driver"`     // resolved default root driver
	TableImpl string `json:"table_impl"` // shared-table implementation; "none" when disabled
	InFlight  int    `json:"in_flight"`  // sessions currently holding a slot
	Capacity  int    `json:"capacity"`   // session slots
	Waiting   int64  `json:"waiting"`    // admission queue depth
	// Anomalies counts self-monitor detections since start (0 with obs
	// disabled); TT summarizes the shared-table health. Both let a load
	// balancer see degradation — a thrashing table or a storming driver —
	// not just liveness.
	Anomalies int64          `json:"anomalies"`
	TT        *healthzTTJSON `json:"tt,omitempty"` // omitted when tables are disabled
}

// healthzTTJSON is the /healthz transposition-table section, summed across
// the per-game tables (they share one configuration).
type healthzTTJSON struct {
	Impl       string  `json:"impl"`
	Fill       int64   `json:"fill"` // occupied slots (sampled), all games
	Len        int64   `json:"len"`  // total slots, all games
	HitRate    float64 `json:"hit_rate"`
	Generation int64   `json:"generation"` // aging ticks, summed across games
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var sm obs.Sample
	s.obsSample(&sm)
	out := healthzJSON{
		Status:    "ok",
		UptimeMS:  time.Since(s.start).Milliseconds(),
		Games:     len(s.engines),
		Backend:   s.defaultBackend,
		Driver:    s.defaultDriver,
		TableImpl: "none",
		InFlight:  len(s.pool),
		Capacity:  cap(s.pool),
		Waiting:   sm.Waiting,
		Anomalies: s.obs.AnomalyTotal(),
	}
	for _, e := range s.engines {
		if e.Table() != nil {
			out.TableImpl = tt.ImplLockFree
			out.TT = &healthzTTJSON{
				Impl:       tt.ImplLockFree,
				Fill:       sm.TTFill,
				Len:        sm.TTLen,
				Generation: sm.TTGenerations,
			}
			if sm.TTProbes > 0 {
				out.TT.HitRate = float64(sm.TTHits) / float64(sm.TTProbes)
			}
			break
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}

// statsJSON is the /stats response: the admission pool, windowed latency
// quantiles, the answer cache, and per-game engine counters.
type statsJSON struct {
	UptimeMS    int64                   `json:"uptime_ms"`
	Capacity    int                     `json:"capacity"`
	Active      int                     `json:"active"`
	Waiting     int64                   `json:"waiting"`
	SLO         sloJSON                 `json:"slo"`
	AnswerCache answerCacheStats        `json:"answer_cache"`
	Games       map[string]engine.Stats `json:"games"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.slo.maybeTick()
	out := statsJSON{
		UptimeMS:    time.Since(s.start).Milliseconds(),
		Waiting:     s.queueDepth(),
		SLO:         s.slo.snapshot(),
		AnswerCache: s.cache.stats(),
		Games:       make(map[string]engine.Stats, len(s.engines)),
	}
	for name, e := range s.engines {
		st := e.Stats()
		out.Capacity = st.Capacity // shared pool: same for every engine
		out.Active = st.Active
		out.Games[name] = st
	}
	s.writeJSON(w, http.StatusOK, out)
}

// Command erserve is an HTTP/JSON analysis service over the repository's
// parallel ER engine: cancellable, time-managed search sessions with a
// bounded concurrent-session pool and per-game shared transposition tables.
// The service itself lives in internal/serve; this command is the flag shell.
//
// Endpoints:
//
//	GET /bestmove?game=connect4&moves=3,3&depth=8&budget_ms=500
//	GET /bestmove?game=connect4&depth=8&backend=lazysmp (per-request backend)
//	GET /bestmove?game=connect4&depth=8&driver=mtdf (per-request root driver)
//	GET /analyze?game=othello&depth=6        (adds per-iteration history)
//	GET /analyze?game=othello&depth=6&trace=1  (Perfetto-loadable worker trace)
//	GET /analyze?game=othello&depth=6&stream=1 (SSE per-iteration progress)
//	GET /analyze?game=othello&depth=6&flight=1 (record a flight report)
//	GET /debug/flight                        (retained reports; ?id=<request id>)
//	GET /debug/obs                           (self-monitor: sample ring, detector states, anomalies)
//	GET /debug/obs/profiles/<id>             (auto-captured pprof profiles; ?type=goroutine|cpu)
//	GET /healthz                             (readiness + uptime/backend/table/in-flight)
//	GET /stats                               (counters + windowed latency quantiles)
//	GET /metrics                             (Prometheus text; ?format=json)
//
// A position is the list of child indices (natural move order) from the
// game's initial position. The search runs iterative deepening under the
// request budget and always answers with the deepest completed iteration,
// marking completed=false when the budget cut it short.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"time"

	"ertree/internal/backend"
	"ertree/internal/driver"
	"ertree/internal/engine"
	"ertree/internal/serve"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		workers       = flag.Int("workers", 4, "parallel-ER workers per search")
		backendName   = flag.String("backend", engine.DefaultBackend, "default search backend: "+backend.NamesString())
		driverName    = flag.String("driver", engine.DefaultDriver, "default root driver: "+driver.NamesString())
		serialDepth   = flag.Int("serial-depth", 3, "depth at or below which subtrees are searched serially")
		sharded       = flag.Bool("sharded", false, "use the per-worker work-stealing problem heap")
		tableBits     = flag.Int("table-bits", 20, "per-game transposition table size (2^bits slots, 0 disables)")
		cacheSize     = flag.Int("answer-cache", 256, "completed analyses retained by the single-flight answer cache (0 disables caching and request coalescing)")
		maxConcurrent = flag.Int("max-concurrent", 2, "server-wide concurrent search sessions")
		queueTimeout  = flag.Duration("queue-timeout", time.Second, "how long an over-capacity request waits for a slot before 503")
		maxDepth      = flag.Int("max-depth", 32, "cap on the requested search depth")
		defaultBudget = flag.Duration("default-budget", 5*time.Second, "search budget when the request has no budget_ms")
		windowTick    = flag.Duration("slo-window-tick", serve.DefaultWindowTick, "interval between windowed-quantile snapshots")
		windowSlots   = flag.Int("slo-window-slots", serve.DefaultWindowSlots, "snapshots retained per windowed quantile (window ≈ tick × slots)")
		pprofOn       = flag.Bool("pprof", false, "serve /debug/pprof/ profiling endpoints (enables mutex and block profiling)")
		obsSample     = flag.Duration("obs-sample", 250*time.Millisecond, "self-monitor sampling interval for /debug/obs (0 disables the anomaly watchdog)")
		obsRing       = flag.Int("obs-ring", 0, "samples retained by the self-monitor ring (0 = default, ≈1 minute at the sample interval)")
	)
	flag.Parse()

	if !backend.Valid(*backendName) {
		fmt.Fprintf(os.Stderr, "erserve: unknown backend %q (valid: %s)\n",
			*backendName, backend.NamesString())
		os.Exit(2)
	}
	if !driver.Valid(*driverName) {
		fmt.Fprintf(os.Stderr, "erserve: unknown driver %q (valid: %s)\n",
			*driverName, driver.NamesString())
		os.Exit(2)
	}
	s := serve.New(serve.Config{
		Workers:       *workers,
		Backend:       *backendName,
		Driver:        *driverName,
		SerialDepth:   *serialDepth,
		Sharded:       *sharded,
		TableBits:     *tableBits,
		CacheSize:     *cacheSize,
		MaxConcurrent: *maxConcurrent,
		QueueTimeout:  *queueTimeout,
		MaxDepth:      *maxDepth,
		DefaultBudget: *defaultBudget,
		WindowTick:    *windowTick,
		WindowSlots:   *windowSlots,
		ObsSample:     *obsSample,
		ObsRing:       *obsRing,
	})
	defer s.Close()
	var h http.Handler = s.Handler()
	if *pprofOn {
		// Contention on the engine lock is the quantity the paper measures;
		// sample it so /debug/pprof/mutex and /debug/pprof/block show where
		// the real runtime waits.
		runtime.SetMutexProfileFraction(1)
		runtime.SetBlockProfileRate(1)
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", h)
		h = mux
	}
	fmt.Printf("erserve: listening on %s (%s backend, %s driver, %d workers/search, %d concurrent sessions)\n",
		*addr, *backendName, *driverName, *workers, *maxConcurrent)
	if err := http.ListenAndServe(*addr, h); err != nil {
		fmt.Fprintln(os.Stderr, "erserve:", err)
		os.Exit(1)
	}
}

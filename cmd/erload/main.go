// Command erload is a traffic-shaped load harness for the erserve analysis
// service. It replays a scenario — phases of open-loop Poisson arrivals over
// per-game opening/midgame/endgame position mixes, with configurable
// fractions of SSE subscribers, duplicate requests (exercising the
// single-flight answer cache), and mid-budget client cancellations — against
// a running server (-url) or an in-process one it starts itself (default),
// and writes per-phase p50/p95/p99 latency, throughput, shed/error rates,
// answer-cache hit rate, and sampled in-flight/queue-depth gauges to a JSON
// artifact (-out, the committed BENCH_serve.json).
//
// The arrivals are open-loop: request launches follow the seeded Poisson
// clock regardless of completions, so overload shows up as queueing and shed
// rather than as a silently slowed offered rate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"ertree/internal/serve"
)

func main() {
	var (
		target      = flag.String("url", "", "base URL of a running erserve; empty starts an in-process server")
		scenarioArg = flag.String("scenario", "default", "scenario to run: "+scenarioNames())
		seed        = flag.Int64("seed", 1, "rng seed for arrivals and position draws")
		out         = flag.String("out", "", "write the JSON results artifact here (e.g. BENCH_serve.json)")
		verbose     = flag.Bool("v", true, "print per-phase summaries as they complete")
		sampleEvery = flag.Duration("sample-every", 100*time.Millisecond, "in-flight/queue gauge sampling interval")
		readyWait   = flag.Duration("ready-timeout", 10*time.Second, "how long to wait for /healthz readiness")

		// In-process server knobs (ignored with -url).
		backendArg    = flag.String("backend", "", "in-process server: search backend (empty = engine default)")
		workers       = flag.Int("workers", runtime.NumCPU(), "in-process server: parallel-ER workers per search")
		serialDepth   = flag.Int("serial-depth", 4, "in-process server: serial work grain")
		maxConcurrent = flag.Int("max-concurrent", 2*runtime.NumCPU(), "in-process server: concurrent session slots")
		queueTimeout  = flag.Duration("queue-timeout", 150*time.Millisecond, "in-process server: admission queue wait before 503")
		tableBits     = flag.Int("table-bits", 16, "in-process server: per-game transposition table bits")
		cacheSize     = flag.Int("cache-size", 256, "in-process server: answer-cache capacity (0 disables)")
		obsSample     = flag.Duration("obs-sample", 100*time.Millisecond, "in-process server: self-monitor sampling interval (0 disables anomaly detection)")
	)
	flag.Parse()

	sc, ok := scenarios[*scenarioArg]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scenario %q (have: %s)\n", *scenarioArg, scenarioNames())
		os.Exit(2)
	}
	if err := sc.validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	base := *target
	targetLabel := base
	if base == "" {
		// Self mode: an in-process server on a loopback port, so the harness
		// (and CI) needs no separately managed process. A scenario that needs
		// a particular capacity shape (the anomaly storm) overrides the pool
		// knobs so its assertions hold on any host.
		mc, qt := *maxConcurrent, *queueTimeout
		if sc.Self != nil {
			mc, qt = sc.Self.MaxConcurrent, sc.Self.QueueTimeout
		}
		srv := serve.New(serve.Config{
			Backend:       *backendArg,
			Workers:       *workers,
			SerialDepth:   *serialDepth,
			MaxConcurrent: mc,
			QueueTimeout:  qt,
			TableBits:     *tableBits,
			CacheSize:     *cacheSize,
			WindowTick:    time.Second,
			WindowSlots:   30,
			ObsSample:     *obsSample,
			Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer hs.Close()
		base = "http://" + ln.Addr().String()
		targetLabel = "in-process"
	}

	rng := rand.New(rand.NewSource(*seed))
	r := &runner{
		base:        base,
		client:      &http.Client{Timeout: 60 * time.Second},
		rng:         rng,
		corpus:      buildCorpus(rng, 16),
		sampleEvery: *sampleEvery,
		verbose:     *verbose,
	}

	health, err := r.awaitReady(ctx, *readyWait)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *verbose {
		fmt.Printf("target %s ready: backend=%s table=%s capacity=%d; scenario %q (%d phases, seed %d)\n",
			targetLabel, health.Backend, health.TableImpl, health.Capacity, sc.Name, len(sc.Phases), *seed)
	}

	phases, runErr := r.run(ctx, sc)

	art := benchServe{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scenario:   sc.Name,
		Target:     targetLabel,
		Seed:       *seed,
		Server: serverInfo{
			Backend:   health.Backend,
			TableImpl: health.TableImpl,
			Capacity:  health.Capacity,
		},
		Phases: phases,
	}
	if *out != "" && len(phases) > 0 {
		data, err := json.MarshalIndent(art, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *out, err)
			os.Exit(1)
		}
		if *verbose {
			fmt.Printf("wrote %s (%d phases)\n", *out, len(phases))
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
		os.Exit(1)
	}
}

func scenarioNames() string {
	names := make([]string, 0, len(scenarios))
	for n := range scenarios {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

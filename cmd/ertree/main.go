// Command ertree searches a position with any of the repository's
// algorithms and reports the value and search statistics.
//
// Usage:
//
//	ertree -game othello -root O1 -depth 7 -algo er-par -workers 16 -serial-depth 5
//	ertree -game random -seed 7 -degree 4 -tree-depth 10 -depth 10 -algo ab
//	ertree -game ttt -algo negmax -depth 9
//	ertree -game strong -degree 8 -tree-depth 6 -depth 6 -algo pvsplit -workers 4
//
// Algorithms: negmax, ab (alpha-beta), ab-tt (with transposition table),
// ab-select (selective sorting), abnd (without deep cutoffs), id (iterative
// deepening), er (serial ER), er-par (parallel ER on the deterministic
// simulator), er-real (parallel ER on goroutines), aspiration, mwf,
// rootsplit, treesplit, pvsplit, pvsplit-mw.
//
// -backend runs the search through the engine's backend seam instead of
// -algo, comparing schedulers on identical terms:
//
//	ertree -game connect4 -depth 9 -backend lazysmp -workers 4 -table-bits 20
//
// -driver runs a full deepening session through the engine's root-driver
// seam (aspiration, mtdf), printing one line per iteration with the
// driver's probe and re-search counts:
//
//	ertree -game othello -depth 8 -driver mtdf -workers 4 -table-bits 20
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ertree"
	"ertree/internal/engine"
	"ertree/internal/metrics"
	"ertree/internal/obs"
)

func main() {
	var (
		gameName    = flag.String("game", "othello", "game: othello, ttt, connect4, checkers, random, strong")
		rootName    = flag.String("root", "", "othello root: empty for the initial position, or O1/O2/O3")
		seed        = flag.Uint64("seed", 1, "random/strong tree seed")
		degree      = flag.Int("degree", 4, "random/strong tree degree")
		treeDepth   = flag.Int("tree-depth", 8, "random/strong tree height")
		depth       = flag.Int("depth", 6, "search depth (plies)")
		algo        = flag.String("algo", "er-par", "algorithm")
		backendName = flag.String("backend", "", "search via a named backend instead of -algo: "+joinBackends())
		driverName  = flag.String("driver", "", "run engine deepening with a named root driver instead of -algo: "+joinDrivers())
		delta       = flag.Int("delta", 25, "with -driver: aspiration half-window around the previous iteration's value (0 = full window)")
		workers     = flag.Int("workers", 4, "processors for parallel algorithms")
		serialDepth = flag.Int("serial-depth", 3, "depth at or below which subtrees are searched serially")
		sortPly     = flag.Int("sort-ply", 5, "statically sort children above this ply (0 disables)")
		show        = flag.Bool("show", false, "print the position before searching")
		timeline    = flag.Bool("timeline", false, "with er-par: print the worker-utilization timeline")
		traceOut    = flag.String("trace", "", "with er-par/er-real: write a Chrome trace_event JSON (open in Perfetto) to this file")
		bestLine    = flag.Bool("bestmove", false, "also print the best move and principal variation (parallel ER)")
		tableBits   = flag.Int("table-bits", 0, "with er-real: give the search a shared transposition table of 2^bits slots (0 disables)")
		flightOn    = flag.Bool("flight", false, "with er-real: record the search flight log and print the speculation-waste report")
		obsOn       = flag.Bool("obs", false, "with -driver: run the self-monitor during the session and print its report after")
		mutexProf   = flag.String("mutexprofile", "", "write a mutex-contention profile to this file (er-real lock interference)")
		blockProf   = flag.String("blockprofile", "", "write a blocking profile to this file")
	)
	flag.Parse()
	if *mutexProf != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeProfile("mutex", *mutexProf)
	}
	if *blockProf != "" {
		runtime.SetBlockProfileRate(1)
		defer writeProfile("block", *blockProf)
	}

	pos, defaultOrder, err := buildPosition(*gameName, *rootName, *seed, *degree, *treeDepth)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ertree:", err)
		os.Exit(1)
	}
	if *show {
		fmt.Printf("%v\n", pos)
	}
	var order ertree.Orderer
	if defaultOrder && *sortPly > 0 {
		order = ertree.StaticOrder{MaxPly: *sortPly}
	}

	var stats ertree.Stats
	cfg := ertree.Config{Workers: *workers, SerialDepth: *serialDepth, Order: order, Stats: &stats}
	cost := ertree.DefaultCostModel()

	if *driverName != "" {
		if !ertree.ValidDriver(*driverName) {
			fmt.Fprintf(os.Stderr, "ertree: unknown driver %q (valid: %s)\n", *driverName, joinDrivers())
			os.Exit(2)
		}
		if *backendName != "" && !ertree.ValidBackend(*backendName) {
			fmt.Fprintf(os.Stderr, "ertree: unknown backend %q (valid: %s)\n", *backendName, joinBackends())
			os.Exit(2)
		}
		ecfg := engine.Config{
			Backend:     *backendName,
			Driver:      *driverName,
			Workers:     *workers,
			SerialDepth: *serialDepth,
			Order:       order,
			TableBits:   *tableBits,
			Delta:       ertree.Value(*delta),
		}
		var mon *obs.Monitor
		if *obsOn {
			// A CLI session is short, so sample fast; the ring easily holds a
			// whole session at this rate (default slots × 20ms ≈ 4.8s).
			mon = obs.New(obs.Config{SampleEvery: 20 * time.Millisecond})
			ecfg.Obs = mon
		}
		eng := engine.New(ecfg)
		if mon != nil {
			mon.SetSource(eng.AddSample)
			mon.Start()
		}
		an, err := eng.Analyze(context.Background(), pos, *depth)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ertree:", err)
			os.Exit(1)
		}
		for _, it := range an.Iterations {
			fmt.Printf("depth %2d: value %6d move %d (%d probes, %d re-searches) in %v\n",
				it.Depth, it.Value, it.Move, it.Probes, it.Researches, it.Elapsed)
		}
		fmt.Printf("driver %s on backend %s: best move %d (natural order), value %d, %d nodes in %v\n",
			an.Driver, an.Backend, an.Move, an.Value, an.Nodes, an.Elapsed)
		if st := eng.Stats(); st.HasTable && st.TTProbes > 0 {
			fmt.Printf("table: %d probes, %d hits (%.1f%%), %d stores, %d searches answered without searching\n",
				st.TTProbes, st.TTHits,
				100*float64(st.TTHits)/float64(st.TTProbes),
				st.TTStores, st.TTCutoffs)
		}
		if mon != nil {
			// One final synchronous sample so the report includes the session's
			// end state even if it finished between ticker beats.
			mon.Tick(time.Now())
			mon.Close()
			fmt.Println()
			mon.WriteText(os.Stdout)
		}
		return
	}

	if *backendName != "" {
		if !ertree.ValidBackend(*backendName) {
			fmt.Fprintf(os.Stderr, "ertree: unknown backend %q (valid: %s)\n", *backendName, joinBackends())
			os.Exit(2)
		}
		if *tableBits > 0 {
			cfg.Table = mustTable(*tableBits)
		}
		res, err := ertree.SearchWith(*backendName, pos, *depth, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ertree:", err)
			os.Exit(1)
		}
		report(res.Value, nil)
		fmt.Printf("backend %s: best move %d (natural order), %d nodes on %d workers\n",
			*backendName, res.Move, res.Totals.Nodes, res.Workers)
		if res.Totals.TTProbes > 0 {
			fmt.Printf("table: %d probes, %d hits (%.1f%%), %d stores, %d searches answered without searching\n",
				res.Totals.TTProbes, res.Totals.TTHits,
				100*float64(res.Totals.TTHits)/float64(res.Totals.TTProbes),
				res.Totals.TTStores, res.Totals.TTCutoffs)
		}
		return
	}

	switch *algo {
	case "negmax":
		report(ertree.Negmax(pos, *depth), nil)
	case "ab":
		s := ertree.Serial{Order: order, Stats: &stats}
		report(s.AlphaBeta(pos, *depth, ertree.FullWindow()), &stats)
	case "ab-tt":
		s := ertree.Serial{Order: order, Stats: &stats}
		table := ertree.NewTranspositionTable(20)
		report(s.AlphaBetaTT(pos, *depth, ertree.FullWindow(), table), &stats)
		fmt.Printf("transposition table: %d probes, %d hits (%.1f%%), %d stores\n",
			table.Probes, table.Hits, 100*table.HitRate(), table.Stores)
	case "ab-select":
		s := ertree.Serial{Order: order, Stats: &stats}
		report(s.AlphaBetaSelectiveSort(pos, *depth, ertree.FullWindow()), &stats)
	case "abnd":
		s := ertree.Serial{Order: order, Stats: &stats}
		report(s.AlphaBetaNoDeep(pos, *depth, ertree.Inf), &stats)
	case "id":
		for _, r := range ertree.IterativeDeepening(pos, *depth, 64, order) {
			fmt.Printf("depth %2d: value %6d (%d re-searches)\n", r.Depth, r.Value, r.Researches)
		}
	case "er":
		s := ertree.Serial{Order: order, Stats: &stats}
		report(s.ER(pos, *depth, ertree.FullWindow()), &stats)
	case "er-par":
		cfg2 := cfg
		cfg2.Trace = *timeline || *traceOut != ""
		res, err := ertree.Simulate(pos, *depth, cfg2, cost)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ertree:", err)
			os.Exit(1)
		}
		report(res.Value, &stats)
		fmt.Printf("virtual time %d on %d processors (busy %d, starved %d, lock wait %d)\n",
			res.VirtualTime, res.Workers, res.BusyTime, res.StarveTime, res.LockTime)
		fmt.Printf("serial tasks %d, speculative pops %d, cancelled %d\n",
			res.SerialTasks, res.SpecPops, res.CutoffDrops+res.Dropped)
		if *timeline {
			spans := make([][]metrics.Span, len(res.Timeline))
			for i, iv := range res.Timeline {
				for _, s := range iv {
					spans[i] = append(spans[i], metrics.Span{Start: s.Start, End: s.End})
				}
			}
			fmt.Print(metrics.Timeline("worker utilization", spans, res.VirtualTime, 64))
		}
		if *traceOut != "" {
			if err := writeSimTrace(*traceOut, "ertree er-par (virtual time)", res.Timeline); err != nil {
				fmt.Fprintln(os.Stderr, "ertree:", err)
				os.Exit(1)
			}
			fmt.Printf("trace written to %s (open in https://ui.perfetto.dev)\n", *traceOut)
		}
	case "er-real":
		if *tableBits > 0 {
			cfg.Table = mustTable(*tableBits)
		}
		var sink *traceSink
		if *traceOut != "" || *flightOn {
			sink = newTraceSink()
			cfg.Hooks = &ertree.SearchHooks{Spans: *traceOut != "", HeapEvery: 8, OnWorkerDone: sink.add}
			if *flightOn {
				cfg.Hooks.Events = 1 << 16
			}
		}
		res, err := ertree.Search(pos, *depth, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ertree:", err)
			os.Exit(1)
		}
		report(res.Value, &stats)
		fmt.Printf("elapsed %v on %d workers\n", res.Elapsed, res.Workers)
		if sink != nil && *traceOut != "" {
			if err := writeRealTrace(*traceOut, "ertree er-real", sink.workers()); err != nil {
				fmt.Fprintln(os.Stderr, "ertree:", err)
				os.Exit(1)
			}
			fmt.Printf("trace written to %s (open in https://ui.perfetto.dev)\n", *traceOut)
		}
		if *flightOn {
			label := fmt.Sprintf("%s depth %d", *gameName, *depth)
			printFlight(pos, *depth, *serialDepth, order == nil, res.Workers, label, sink.workers())
		}
		if res.TTProbes > 0 {
			fmt.Printf("table: %d probes, %d hits (%.1f%%), %d stores, %d tasks answered without searching\n",
				res.TTProbes, res.TTHits,
				100*float64(res.TTHits)/float64(res.TTProbes),
				res.TTStores, res.TTCutoffs)
		}
	case "aspiration":
		res := ertree.Aspiration(pos, *depth, ertree.AspirationOptions{Workers: *workers, Bound: 12000, Order: order}, cost)
		report(res.Value, nil)
		fmt.Printf("parallel time %d, total nodes %d across %d windows\n",
			res.ParallelTime, res.TotalNodes, len(res.Windows))
	case "mwf":
		res := ertree.MWF(pos, *depth, ertree.MWFOptions{Workers: *workers, SerialDepth: *serialDepth, Order: order}, cost)
		report(res.Value, nil)
		fmt.Printf("virtual time %d, nodes %d, tasks %d\n", res.VirtualTime, res.Nodes, res.Tasks)
	case "rootsplit":
		res := ertree.RootSplit(pos, *depth, ertree.RootSplitOptions{Workers: *workers, Order: order}, cost)
		report(res.Value, nil)
		fmt.Printf("virtual time %d on %d processors, nodes %d\n", res.Time, res.Workers, res.Nodes)
	case "treesplit", "pvsplit", "pvsplit-mw":
		opt := ertree.TreeSplitOptions{Height: heightFor(*workers), Fanout: 2, Order: order}
		var res ertree.TreeSplitResult
		switch *algo {
		case "treesplit":
			res = ertree.TreeSplit(pos, *depth, opt, cost)
		case "pvsplit-mw":
			res = ertree.PVSplitMW(pos, *depth, opt, cost)
		default:
			res = ertree.PVSplit(pos, *depth, opt, cost)
		}
		report(res.Value, nil)
		fmt.Printf("virtual time %d on %d slave processors, nodes %d, aborts %d\n",
			res.Time, opt.Processors(), res.Nodes, res.Aborts)
	default:
		fmt.Fprintf(os.Stderr, "ertree: unknown algorithm %q\n", *algo)
		os.Exit(1)
	}

	if *bestLine {
		line, err := ertree.BestLine(pos, *depth, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ertree:", err)
			os.Exit(1)
		}
		if len(line) == 0 {
			fmt.Println("no moves (terminal position)")
			return
		}
		fmt.Printf("principal variation (child indices, natural move order):")
		for _, mv := range line {
			fmt.Printf(" %d(%+d)", mv.Index, mv.Score)
		}
		fmt.Println()
	}
}

// writeProfile dumps the named runtime profile to path. Profiles are
// best-effort tooling: failures are reported, not fatal. (Error exits via
// os.Exit skip the profile, which is fine — there is nothing to profile.)
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ertree:", err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintln(os.Stderr, "ertree:", err)
	}
}

// buildPosition constructs the root position; the bool reports whether the
// game benefits from static move ordering.
func buildPosition(gameName, rootName string, seed uint64, degree, treeDepth int) (ertree.Position, bool, error) {
	switch gameName {
	case "othello":
		if rootName == "" {
			return ertree.Othello(), true, nil
		}
		b, err := ertree.OthelloRoot(rootName)
		return b, true, err
	case "ttt":
		return ertree.TicTacToe(), false, nil
	case "connect4":
		return ertree.Connect4(), false, nil
	case "checkers":
		return ertree.Checkers(), true, nil
	case "random":
		return ertree.NewRandomTree(seed, degree, treeDepth).Root(), false, nil
	case "strong":
		return ertree.NewStrongTree(seed, degree, treeDepth).Root(), true, nil
	default:
		return nil, false, fmt.Errorf("unknown game %q", gameName)
	}
}

// joinBackends lists the registered backend names for flag help and errors.
func joinBackends() string { return strings.Join(ertree.Backends(), ", ") }

// joinDrivers lists the registered root-driver names for flag help and errors.
func joinDrivers() string { return strings.Join(ertree.Drivers(), ", ") }

// mustTable builds the shared table of 2^bits slots.
func mustTable(bits int) ertree.SearchTable {
	t, err := ertree.NewSearchTable(ertree.TableLockFree, bits, 0)
	if err != nil {
		panic(err) // unreachable: TableLockFree names the implementation
	}
	return t
}

// heightFor returns the binary processor-tree height closest to the
// requested worker count from below.
func heightFor(workers int) int {
	h := 0
	for 1<<(h+1) <= workers {
		h++
	}
	return h
}

func report(v ertree.Value, stats *ertree.Stats) {
	fmt.Printf("value %d\n", v)
	if stats != nil {
		s := stats.Snapshot()
		fmt.Printf("nodes generated %d, static evaluations %d (+%d for ordering), cutoffs %d\n",
			s.Generated, s.Evaluated, s.SortEvals, s.Cutoffs)
	}
}

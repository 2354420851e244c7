package core

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ertree/internal/driver"
	"ertree/internal/game"
	"ertree/internal/randtree"
	"ertree/internal/tt"
)

// Differential schedule-fuzzing harness.
//
// The sharded work-stealing heap relaxes the paper's global task ordering:
// which nodes are speculatively expanded now depends on steal interleavings,
// pop timing, and the per-worker victim rotation. The root value must not —
// parallel ER is sound for any schedule because tasks are independent,
// combine is a commutative max, and windows only narrow. This harness makes
// that claim falsifiable: randomized trees, worker counts, steal seeds and
// injected pop-delays, every run cross-checked against the serial negamax
// oracle and the heap conservation invariants (no lost tasks, no duplicate
// queue entries, finish exactly once per node — the latter two armed as
// panics via debugInvariants for the whole package test run).

// TestMain arms the package-wide schedule-perturbation instrumentation:
// debugInvariants turns the double-finish / duplicate-pop checks into panics
// for every test in this package, and the pop-jitter hook is installed once
// here (behavior gated by the jitterSeed atomic, so tests toggle it without
// racing workers that are mid-read).
func TestMain(m *testing.M) {
	debugInvariants = true
	testPopJitter = scheduleJitter
	os.Exit(m.Run())
}

// jitterSeed arms scheduleJitter when nonzero; jitterTick decorrelates
// successive calls.
var (
	jitterSeed atomic.Uint64
	jitterTick atomic.Uint64
)

// scheduleJitter perturbs the sharded pop loop: occasional microsecond
// sleeps and yields, hashed from the armed seed, the worker index and a
// global tick, so steals race drains and sleep races pushes in ways the
// normal scheduler rarely produces.
func scheduleJitter(worker int) {
	seed := jitterSeed.Load()
	if seed == 0 {
		return
	}
	x := seed ^ uint64(worker+1)*0x9E3779B97F4A7C15 ^ jitterTick.Add(1)*0xBF58476D1CE4E5B9
	x ^= x >> 29
	x *= 0x94D049BB133111EB
	x ^= x >> 32
	switch x % 16 {
	case 0:
		time.Sleep(time.Duration(x%64) * time.Microsecond)
	case 1, 2, 3:
		runtime.Gosched()
	}
}

// fuzzCase is one decoded schedule-fuzz configuration.
type fuzzCase struct {
	tree    *randtree.Tree
	depth   int
	opt     Options
	jitter  uint64
	withTT  bool
	sharded bool
	// drv, when non-empty, additionally deepens 1..depth through the named
	// root driver (aspiration/mtdf), each iteration resolved by
	// RootWindow-bounded searches of this same configuration — the driver
	// dimension of the fuzz space.
	drv string
}

// decodeFuzzCase maps raw fuzz inputs onto a bounded search configuration:
// trees small enough that the serial oracle stays fast, worker counts up to
// 8, all speculation mechanisms and spec-rank policies reachable, sharded
// and global heaps both reachable, steal seeds and pop-jitter fuzzed.
func decodeFuzzCase(seed uint64, shape uint16, sched uint32, stealSeed uint64) fuzzCase {
	degree := 1 + int(shape%4)     // 1..4
	depth := 1 + int((shape>>2)%6) // 1..6
	valueRange := 1 + int32((shape>>8)%200)
	// Cap the leaf count so one case stays well under a millisecond of
	// oracle time: shrink depth until degree^depth <= 4096.
	for leaves := pow(degree, depth); leaves > 4096; leaves = pow(degree, depth) {
		depth--
	}
	c := fuzzCase{
		tree:  &randtree.Tree{Seed: seed, Degree: degree, Depth: depth, ValueRange: valueRange},
		depth: depth,
	}
	c.opt = Options{
		Workers:            1 + int(sched%8),
		SerialDepth:        int((sched >> 3) % 4),
		ParallelRefutation: sched>>5&1 == 1,
		MultipleENodes:     sched>>6&1 == 1,
		EarlyChoice:        sched>>7&1 == 1,
		SpecRank:           SpecRank((sched >> 8) % 3),
		EagerSpec:          sched>>10&1 == 1,
		Sharded:            sched>>11&1 == 1,
		StealSeed:          stealSeed,
	}
	c.sharded = c.opt.Sharded
	c.withTT = sched>>12&1 == 1
	if c.withTT {
		c.opt.Table = tt.NewLockFree(10)
	}
	if sched>>13&1 == 1 {
		c.jitter = stealSeed | 1
	}
	// Slot 3 selects mtdf too, so every committed seed still decodes.
	c.drv = [...]string{"", "aspiration", "mtdf", "mtdf"}[(sched>>14)&3]
	return c
}

func pow(b, e int) int {
	n := 1
	for i := 0; i < e; i++ {
		n *= b
		if n > 1<<20 {
			return n
		}
	}
	return n
}

// verifyHeapConservation inspects the post-search state (via testStateHook,
// after all workers exited, before the arena is released): every push was
// either popped or is still queued (no lost tasks), every queued node still
// carries its queued flag (no orphaned entries), and the queued counter
// agrees with the shard contents.
func verifyHeapConservation(t testing.TB, s *state) {
	t.Helper()
	if s.shards != nil {
		var remaining int64
		for i := range s.shards.shards {
			sh := &s.shards.shards[i]
			sh.mu.Lock()
			for _, n := range sh.primary {
				if !n.inPrimary {
					t.Errorf("shard %d: queued primary node without inPrimary flag", i)
				}
			}
			for _, n := range sh.spec {
				if !n.onSpec {
					t.Errorf("shard %d: queued spec node without onSpec flag", i)
				}
			}
			remaining += int64(len(sh.primary) + len(sh.spec))
			sh.mu.Unlock()
		}
		if q := s.shards.queued.Load(); q != remaining {
			t.Errorf("queued counter %d, shard contents %d", q, remaining)
		}
		pushes, pops := s.shards.pushes.Load(), s.shards.pops.Load()
		if pushes != pops+remaining {
			t.Errorf("task conservation violated: %d pushed, %d popped, %d remaining", pushes, pops, remaining)
		}
	} else {
		remaining := int64(len(s.heap.primary) + len(s.heap.spec))
		pushes, pops := s.heap.pushes.Load(), s.heap.pops.Load()
		if pushes != pops+remaining {
			t.Errorf("task conservation violated: %d pushed, %d popped, %d remaining", pushes, pops, remaining)
		}
	}
	if !s.root.done && !s.aborted {
		t.Error("workers exited with the root unresolved and no abort")
	}
}

// runFuzzCase executes one configuration against the oracle, and with a
// table attached audits every entry the searches stored (audit_test.go).
// Called only from sequential tests (testStateHook is a package global).
func runFuzzCase(t testing.TB, c fuzzCase) {
	t.Helper()
	want := oracle(c.tree.Root(), c.depth)

	jitterSeed.Store(c.jitter)
	defer jitterSeed.Store(0)
	testStateHook = func(s *state) { verifyHeapConservation(t, s) }
	defer func() { testStateHook = nil }()

	res, err := Search(c.tree.Root(), c.depth, c.opt)
	if err != nil {
		t.Fatalf("%+v: Search: %v", c.opt, err)
	}
	if res.Value != want {
		t.Fatalf("schedule divergence: tree %v depth %d opt %+v: Search = %d, oracle = %d",
			c.tree, c.depth, c.opt, res.Value, want)
	}
	if !res.Exact {
		t.Fatalf("full-window search reported inexact result: %+v", res)
	}
	if res.Sharded != c.sharded {
		t.Fatalf("Result.Sharded = %v, want %v", res.Sharded, c.sharded)
	}

	if c.drv != "" {
		runFuzzDriver(t, c)
	}
	if c.withTT {
		auditTable(t, c.opt.Table, c.tree.Root(), c.depth)
	}
}

// runFuzzDriver deepens 1..depth through the configured root driver, every
// iteration resolved by RootWindow-bounded searches of the fuzzed scheduler
// configuration. Every probe's value must be a correct fail-soft result for
// its window, and each depth's resolved value must match the oracle — the
// driver must converge through whatever fail-soft bounds the fuzzed schedule
// produces, with or without a table (the no-table mtdf degradation path is
// half the fuzz space). Core searches report no root move, so resolution is
// value-only (move -1 throughout).
func runFuzzDriver(t testing.TB, c fuzzCase) {
	t.Helper()
	d, err := driver.New(c.drv, driver.Config{Delta: 8})
	if err != nil {
		t.Fatal(err)
	}
	prev := game.NoValue
	for depth := 1; depth <= c.depth; depth++ {
		want := oracle(c.tree.Root(), depth)
		r, err := d.Resolve(func(w game.Window) (int, game.Value, error) {
			opt := c.opt
			opt.RootWindow = &w
			res, err := Search(c.tree.Root(), depth, opt)
			if err != nil {
				return -1, 0, err
			}
			if !w.FailSoft(res.Value, want) {
				t.Fatalf("driver %s depth %d window (%d,%d): probe returned %d, not a fail-soft result for oracle %d (tree %v opt %+v)",
					c.drv, depth, w.Alpha, w.Beta, res.Value, want, c.tree, c.opt)
			}
			return -1, res.Value, nil
		}, prev)
		if err != nil {
			t.Fatalf("driver %s depth %d: %v", c.drv, depth, err)
		}
		if r.Value != want {
			t.Fatalf("driver divergence: %s on tree %v depth %d opt %+v: resolved %d, oracle %d",
				c.drv, c.tree, depth, c.opt, r.Value, want)
		}
		if r.Probes > driver.ProbeBound {
			t.Fatalf("driver %s depth %d: %d probes exceeds the bound %d", c.drv, depth, r.Probes, driver.ProbeBound)
		}
		prev = r.Value
	}
}

// FuzzSearchEquivalence is the native fuzz target: `go test
// -fuzz=FuzzSearchEquivalence ./internal/core/` explores tree shapes, worker
// counts, heap modes, steal seeds, pop-delays and root drivers, failing on
// any divergence from the serial oracle or any invariant violation. The
// committed corpus under testdata/fuzz/ pins the interesting region (sharded
// × jitter × spec-rank × TT × driver) so plain `go test` replays it on every
// run.
func FuzzSearchEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(0x0F), uint32(0xFFFF), uint64(42))
	f.Add(uint64(0x60_0D), uint16(0x1B), uint32(0x2FE1), uint64(7))
	f.Add(uint64(3), uint16(0x2A7), uint32(0x3AE5), uint64(0))
	f.Add(uint64(99), uint16(0x13), uint32(0x0820), uint64(123456789))
	f.Add(uint64(424242), uint16(0x3FF), uint32(0x1FFF), uint64(0xDEADBEEF))
	// Driver-dimension seeds (sched bits 14-15): aspiration over the sharded
	// heap, mtdf with the table, mtdf without the table (the degradation
	// path), and mtdf with jitter armed through driver slot 3 (sched =
	// 0xFFFF, as in the first seed above; slot 3 selects mtdf too).
	f.Add(uint64(0x60_0E), uint16(0x1B), uint32(0x6FE1), uint64(17))
	f.Add(uint64(5), uint16(0x2A7), uint32(0xBAE5), uint64(3))
	f.Add(uint64(77), uint16(0x153), uint32(0x8FE1), uint64(9))
	f.Add(uint64(2024), uint16(0x3F), uint32(0xFFFF), uint64(0xFEED))
	f.Fuzz(func(t *testing.T, seed uint64, shape uint16, sched uint32, stealSeed uint64) {
		runFuzzCase(t, decodeFuzzCase(seed, shape, sched, stealSeed))
	})
}

// TestDifferentialSchedules is the deterministic slice of the fuzz space run
// on every `go test`: for a spread of trees it compares the serial oracle,
// the global heap, and the sharded heap across worker counts, steal seeds
// and jitter, asserting identical root values and heap conservation on every
// run.
func TestDifferentialSchedules(t *testing.T) {
	type variant struct {
		workers   int
		sharded   bool
		stealSeed uint64
		jitter    uint64
	}
	variants := []variant{
		{workers: 1, sharded: false},
		{workers: 4, sharded: false},
		{workers: 1, sharded: true},
		{workers: 2, sharded: true, stealSeed: 1},
		{workers: 4, sharded: true, stealSeed: 99, jitter: 0xABCD},
		{workers: 8, sharded: true, stealSeed: 7, jitter: 0x1234},
	}
	trees := []*randtree.Tree{
		{Seed: 11, Degree: 2, Depth: 8, ValueRange: 100},
		{Seed: 12, Degree: 3, Depth: 6, ValueRange: 1000},
		{Seed: 13, Degree: 4, Depth: 5, ValueRange: 5}, // heavy ties
		{Seed: 14, Degree: 1, Depth: 6, ValueRange: 50},
	}
	for ti, tr := range trees {
		for _, sd := range []int{0, 2} {
			for vi, v := range variants {
				c := fuzzCase{
					tree:  tr,
					depth: tr.Depth,
					opt: Options{
						Workers:            v.workers,
						SerialDepth:        sd,
						ParallelRefutation: true,
						MultipleENodes:     true,
						EarlyChoice:        true,
						Sharded:            v.sharded,
						StealSeed:          v.stealSeed,
					},
					jitter:  v.jitter,
					sharded: v.sharded,
				}
				t.Run(fmt.Sprintf("tree%d-sd%d-v%d", ti, sd, vi), func(t *testing.T) {
					runFuzzCase(t, c)
				})
			}
		}
	}
}

// TestShardedDrainNoLivelock is the regression test for the empty-pop path
// under stealing: with far more workers than the tree can feed, most workers
// oscillate between failed local pops, failed steals and cond-wait sleeps
// while the heap drains, with pop-jitter widening the race windows. Any lost
// wakeup (a push whose WakeAll lands before a starving worker re-checks the
// queued counter) or a steal/termination livelock shows up as the batch
// blowing the deadline.
func TestShardedDrainNoLivelock(t *testing.T) {
	tr := &randtree.Tree{Seed: 21, Degree: 3, Depth: 7, ValueRange: 100}
	want := oracle(tr.Root(), 7)
	jitterSeed.Store(0x5EED)
	defer jitterSeed.Store(0)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 25; i++ {
			opt := DefaultOptions()
			opt.Workers = 16
			opt.SerialDepth = 1
			opt.Sharded = true
			opt.StealSeed = uint64(i) * 0x9E3779B9
			res, err := Search(tr.Root(), 7, opt)
			if err != nil {
				done <- err
				return
			}
			if res.Value != want {
				done <- fmt.Errorf("run %d: Search = %d, oracle = %d", i, res.Value, want)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("livelock: 25 sharded drains did not finish in 60s\n%s", buf[:n])
	}
}

// TestShardedStealsHappen pins that the sharded configuration actually
// exercises the steal path (a scheduler whose workers never run dry would
// leave the whole steal mechanism untested): across a batch of searches wide
// enough to starve some shards, at least one steal must occur, and the steal
// counters must be consistent with the telemetry shards.
func TestShardedStealsHappen(t *testing.T) {
	tr := &randtree.Tree{Seed: 5, Degree: 4, Depth: 7, ValueRange: 10000}
	var steals int64
	var telSteals atomic.Int64
	for attempt := 0; attempt < 20 && steals == 0; attempt++ {
		opt := DefaultOptions()
		opt.Workers = 8
		opt.SerialDepth = 2
		opt.Sharded = true
		opt.StealSeed = uint64(attempt)
		opt.Hooks = &Hooks{OnWorkerDone: func(wt WorkerTelemetry) {
			telSteals.Add(wt.Steals)
		}}
		res, err := Search(tr.Root(), 7, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != oracle(tr.Root(), 7) {
			t.Fatalf("wrong value %d", res.Value)
		}
		steals += res.Steals
	}
	if steals == 0 {
		t.Fatal("no steal ever happened across 20 sharded searches at P=8")
	}
	if telSteals.Load() != steals {
		t.Errorf("telemetry counted %d steals, results counted %d", telSteals.Load(), steals)
	}
}

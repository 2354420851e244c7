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
// On the real runtime, which nodes are speculatively expanded depends on how
// the workers interleave: pop timing, cond-var wakeups, and windows that
// narrow while a task runs unlocked. The root value must not — parallel ER is
// sound for any schedule because tasks are independent, combine is a
// commutative max, and windows only narrow. This harness makes that claim
// falsifiable: randomized trees, worker counts and injected delays at the
// workers' unlocked steps, every run cross-checked against the serial
// negamax oracle and the heap conservation invariant (no lost tasks), with
// finish-exactly-once per node armed as a panic via debugInvariants for the
// whole package test run.

// TestMain arms the package-wide schedule-perturbation instrumentation:
// debugInvariants turns the double-finish check into a panic for every test
// in this package, and the jitter hook is installed once here (behavior
// gated by the jitterSeed atomic, so tests toggle it without racing workers
// that are mid-read).
func TestMain(m *testing.M) {
	debugInvariants = true
	testStepJitter = scheduleJitter
	os.Exit(m.Run())
}

// jitterSeed arms scheduleJitter when nonzero; jitterTick decorrelates
// successive calls.
var (
	jitterSeed atomic.Uint64
	jitterTick atomic.Uint64
)

// scheduleJitter perturbs the workers' unlocked steps: occasional
// microsecond sleeps and yields, hashed from the armed seed and a global
// tick, so pushes race sleeps and windows narrow under running tasks in ways
// the normal scheduler rarely produces.
func scheduleJitter() {
	seed := jitterSeed.Load()
	if seed == 0 {
		return
	}
	x := seed ^ jitterTick.Add(1)*0xBF58476D1CE4E5B9
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
	tree   *randtree.Tree
	depth  int
	opt    Options
	jitter uint64
	withTT bool
	// drv, when non-empty, additionally deepens 1..depth through the named
	// root driver (aspiration/mtdf), each iteration resolved by
	// RootWindow-bounded searches of this same configuration — the driver
	// dimension of the fuzz space.
	drv string
}

// decodeFuzzCase maps raw fuzz inputs onto a bounded search configuration:
// trees small enough that the serial oracle stays fast, worker counts up to
// 8, all speculation mechanisms and spec-rank policies reachable, and the
// jitter fuzzed. Sched bit 11 is unused; the committed corpus sets it, so the
// bits above it keep their positions.
func decodeFuzzCase(seed uint64, shape uint16, sched uint32, jitter uint64) fuzzCase {
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
	}
	c.withTT = sched>>12&1 == 1
	if c.withTT {
		c.opt.Table = tt.NewLockFree(10)
	}
	if sched>>13&1 == 1 {
		c.jitter = jitter | 1
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
// either popped or is still queued (no lost tasks).
func verifyHeapConservation(t testing.TB, s *state) {
	t.Helper()
	remaining := int64(len(s.heap.primary) + len(s.heap.spec))
	pushes, pops := s.heap.pushes.Load(), s.heap.pops.Load()
	if pushes != pops+remaining {
		t.Errorf("task conservation violated: %d pushed, %d popped, %d remaining", pushes, pops, remaining)
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
// counts, speculation settings, injected delays and root drivers, failing on
// any divergence from the serial oracle or any invariant violation. The
// committed corpus under testdata/fuzz/ pins the interesting region (jitter
// × spec-rank × TT × driver) so plain `go test` replays it on every run.
func FuzzSearchEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(0x0F), uint32(0xFFFF), uint64(42))
	f.Add(uint64(0x60_0D), uint16(0x1B), uint32(0x2FE1), uint64(7))
	f.Add(uint64(3), uint16(0x2A7), uint32(0x3AE5), uint64(0))
	f.Add(uint64(99), uint16(0x13), uint32(0x0820), uint64(123456789))
	f.Add(uint64(424242), uint16(0x3FF), uint32(0x1FFF), uint64(0xDEADBEEF))
	// Driver-dimension seeds (sched bits 14-15): aspiration, mtdf with the
	// table, mtdf without the table (the degradation path), and mtdf with
	// jitter armed through driver slot 3 (sched = 0xFFFF, as in the first
	// seed above; slot 3 selects mtdf too).
	f.Add(uint64(0x60_0E), uint16(0x1B), uint32(0x6FE1), uint64(17))
	f.Add(uint64(5), uint16(0x2A7), uint32(0xBAE5), uint64(3))
	f.Add(uint64(77), uint16(0x153), uint32(0x8FE1), uint64(9))
	f.Add(uint64(2024), uint16(0x3F), uint32(0xFFFF), uint64(0xFEED))
	f.Fuzz(func(t *testing.T, seed uint64, shape uint16, sched uint32, jitter uint64) {
		runFuzzCase(t, decodeFuzzCase(seed, shape, sched, jitter))
	})
}

// TestDifferentialSchedules is the deterministic slice of the fuzz space run
// on every `go test`: for a spread of trees it compares the serial oracle
// with the parallel search across worker counts and jitter, asserting
// identical root values and heap conservation on every run.
func TestDifferentialSchedules(t *testing.T) {
	type variant struct {
		workers int
		jitter  uint64
	}
	// P=4 without jitter is the unperturbed reference for the jittered
	// multi-worker variants; P=1 runs with and without it.
	variants := []variant{
		{workers: 1},
		{workers: 4},
		{workers: 1, jitter: 0x5EED},
		{workers: 2, jitter: 0x0001},
		{workers: 4, jitter: 0xABCD},
		{workers: 8, jitter: 0x1234},
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
					},
					jitter: v.jitter,
				}
				t.Run(fmt.Sprintf("tree%d-sd%d-v%d", ti, sd, vi), func(t *testing.T) {
					runFuzzCase(t, c)
				})
			}
		}
	}
}

// TestDrainNoLivelock is the regression test for the empty-heap path: with
// far more workers than the tree can feed, most workers oscillate between
// empty pops and cond-wait sleeps while the heap drains, with jitter at the
// unlocked steps widening the race windows. Any lost wakeup (a push whose
// WakeAll lands before a starving worker re-checks the heap) or a
// termination livelock shows up as the batch blowing the deadline.
func TestDrainNoLivelock(t *testing.T) {
	tr := &randtree.Tree{Seed: 21, Degree: 3, Depth: 7, ValueRange: 100}
	want := oracle(tr.Root(), 7)
	jitterSeed.Store(0x5EED)
	defer jitterSeed.Store(0)
	tick0 := jitterTick.Load()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 25; i++ {
			opt := DefaultOptions()
			opt.Workers = 16
			opt.SerialDepth = 1
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
		if jitterTick.Load() == tick0 {
			t.Fatal("the jitter hook never ran at an unlocked step")
		}
	case <-time.After(60 * time.Second):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("livelock: 25 drains did not finish in 60s\n%s", buf[:n])
	}
}

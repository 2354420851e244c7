package flight_test

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"ertree/internal/core"
	"ertree/internal/flight"
	"ertree/internal/game"
	"ertree/internal/gtree"
)

type sink struct {
	mu   sync.Mutex
	tels []core.WorkerTelemetry
}

func (s *sink) add(wt core.WorkerTelemetry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tels = append(s.tels, wt)
}

func searchWithRecorder(t *testing.T, pos game.Position, depth int, opt core.Options, ring int) []core.WorkerTelemetry {
	t.Helper()
	sk := &sink{}
	opt.Hooks = &core.Hooks{Events: ring, HeapEvery: 4, OnWorkerDone: sk.add}
	if _, err := core.Search(pos, depth, opt); err != nil {
		t.Fatal(err)
	}
	return sk.tels
}

// TestBusyPartitionProperty is the acceptance property: over random trees
// and runtime configurations, useful-primary + useful-speculative +
// wasted-speculative busy time equals total instrumented busy time exactly,
// and likewise for task counts — the attribution is a partition, not a
// sample.
func TestBusyPartitionProperty(t *testing.T) {
	spec := gtree.RandomSpec{MinDegree: 2, MaxDegree: 5, MinDepth: 3, MaxDepth: 6, ValueRange: 200}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 12; i++ {
		tree := spec.Generate(rng)
		opt := core.DefaultOptions()
		opt.Workers = 1 + i%4
		opt.SerialDepth = i % 3
		tels := searchWithRecorder(t, tree, tree.Height(), opt, 1<<20)
		rep := flight.Build(tels, flight.Options{Workers: opt.Workers})
		if rep.EventDrops != 0 {
			t.Fatalf("case %d: unexpected ring drops (%d)", i, rep.EventDrops)
		}
		sumTime := rep.UsefulPrimary.Time + rep.UsefulSpec.Time + rep.WastedSpec.Time
		if sumTime != rep.Busy {
			t.Fatalf("case %d: buckets sum to %v, busy is %v", i, sumTime, rep.Busy)
		}
		sumTasks := rep.UsefulPrimary.Tasks + rep.UsefulSpec.Tasks + rep.WastedSpec.Tasks
		if sumTasks != rep.Tasks {
			t.Fatalf("case %d: buckets count %d tasks, telemetry counted %d", i, sumTasks, rep.Tasks)
		}
		var perPly flight.Bucket
		for _, p := range rep.Plies {
			perPly.Tasks += p.UsefulPrimary.Tasks + p.UsefulSpec.Tasks + p.WastedSpec.Tasks
			perPly.Time += p.UsefulPrimary.Time + p.UsefulSpec.Time + p.WastedSpec.Time
		}
		if perPly.Tasks != sumTasks || perPly.Time != sumTime {
			t.Fatalf("case %d: per-ply profiles disagree with totals", i)
		}
	}
}

// TestMinimalTreeCountsExact is the acceptance check against internal/gtree:
// on a complete tree the report's minimal-leaf count must equal the
// Slagle–Dixon closed form and its minimal-node count the rule-based
// classification — two independently derived quantities.
func TestMinimalTreeCountsExact(t *testing.T) {
	const degree, height = 3, 4
	tree := gtree.Complete(degree, height, func(i int) game.Value {
		return game.Value((i*37)%101 - 50)
	})
	opt := core.DefaultOptions()
	opt.Workers = 4
	tels := searchWithRecorder(t, tree, height, opt, 1<<20)
	rep := flight.Build(tels, flight.Options{Root: tree})
	m := rep.Minimal
	if m == nil {
		t.Fatal("no minimal report despite Options.Root")
	}
	if want := gtree.MinimalLeafCount(degree, height); m.MinimalLeaves != want {
		t.Fatalf("minimal leaves %d, closed form says %d", m.MinimalLeaves, want)
	}
	if want := gtree.ClassifyDeep(tree).CriticalNodes(); m.MinimalNodes != want {
		t.Fatalf("minimal nodes %d, classifier says %d", m.MinimalNodes, want)
	}
	if m.TreeNodes != tree.Size() {
		t.Fatalf("tree nodes %d, want %d", m.TreeNodes, tree.Size())
	}
	if m.Unmapped != 0 {
		t.Fatalf("%d unmapped spawns without ring drops", m.Unmapped)
	}
	// Every node the search materialized must exist in the game tree, and
	// the per-type tally must account for each visited node exactly once.
	byType := m.VisitedByType[0] + m.VisitedByType[1] + m.VisitedByType[2] + m.VisitedByType[3]
	if byType != m.VisitedNodes {
		t.Fatalf("per-type tally %d, visited %d", byType, m.VisitedNodes)
	}
	if m.VisitedNodes > m.TreeNodes {
		t.Fatalf("visited %d nodes of a %d-node tree", m.VisitedNodes, m.TreeNodes)
	}
	if m.VisitedNodes == 0 || m.VisitedByType[1] == 0 {
		t.Fatal("search visited no type-1 nodes — mapping is broken")
	}
}

// slowPos wraps an explicit tree with an artificial evaluation delay. Fast
// in-memory evaluations never let the primary queue drain, so the real
// runtime would never reach the speculative queue; the delay reproduces the
// elder-evaluation starvation window the paper's speculation exists to fill.
type slowPos struct {
	n     *gtree.Node
	delay time.Duration
}

func (p slowPos) Children() []game.Position {
	if len(p.n.Kids) == 0 {
		return nil
	}
	out := make([]game.Position, len(p.n.Kids))
	for i, k := range p.n.Kids {
		out[i] = slowPos{n: k, delay: p.delay}
	}
	return out
}

func (p slowPos) Value() game.Value {
	time.Sleep(p.delay)
	return p.n.Value()
}

// TestWasteDetected: with slow evaluations at P=8 the speculative queue is
// reliably exercised; the profiler must observe the speculative work, keep
// the waste ratio in [0,1], and stay a partition of busy time.
func TestWasteDetected(t *testing.T) {
	tree := gtree.Complete(4, 4, func(i int) game.Value {
		return game.Value((i*37)%101 - 50)
	})
	var sawSpec, sawWaste bool
	for i := 0; i < 6 && !(sawSpec && sawWaste); i++ {
		opt := core.DefaultOptions()
		opt.Workers = 8
		opt.EagerSpec = true
		tels := searchWithRecorder(t, slowPos{n: tree, delay: 50 * time.Microsecond}, 4, opt, 1<<20)
		rep := flight.Build(tels, flight.Options{})
		if rep.WastedRatio() < 0 || rep.WastedRatio() > 1 {
			t.Fatalf("degenerate waste ratio %f", rep.WastedRatio())
		}
		if sum := rep.UsefulPrimary.Time + rep.UsefulSpec.Time + rep.WastedSpec.Time; sum != rep.Busy {
			t.Fatalf("buckets sum to %v, busy is %v", sum, rep.Busy)
		}
		sawSpec = sawSpec || rep.SpecPromotions > 0 || rep.Kinds[core.TaskSpec.String()] > 0
		sawWaste = sawWaste || rep.WastedSpec.Tasks > 0
	}
	if !sawSpec {
		t.Fatal("slow-eval searches at P=8 never reached the speculative queue")
	}
	if !sawWaste {
		t.Log("no wasted speculation attributed in 6 runs (schedule-dependent; not a failure)")
	}
}

// TestWriteText smoke-checks the terminal rendering.
func TestWriteText(t *testing.T) {
	tree := gtree.Complete(2, 4, func(i int) game.Value { return game.Value(i % 7) })
	opt := core.DefaultOptions()
	opt.Workers = 2
	tels := searchWithRecorder(t, tree, 4, opt, 1<<16)
	rep := flight.Build(tels, flight.Options{Label: "smoke", Root: tree})
	var b strings.Builder
	rep.WriteText(&b)
	out := b.String()
	for _, want := range []string{"flight report: smoke", "busy split", "minimal tree"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report text missing %q:\n%s", want, out)
		}
	}
}

// TestBuildTinyRing: with drops the report stays internally consistent (the
// buckets cover at most the recorded span, never more than total busy).
func TestBuildTinyRing(t *testing.T) {
	spec := gtree.RandomSpec{MinDegree: 3, MaxDegree: 4, MinDepth: 5, MaxDepth: 6, ValueRange: 100}
	tree := spec.Generate(rand.New(rand.NewSource(3)))
	opt := core.DefaultOptions()
	opt.Workers = 2
	tels := searchWithRecorder(t, tree, tree.Height(), opt, 16)
	rep := flight.Build(tels, flight.Options{})
	if rep.EventDrops == 0 {
		t.Fatal("a 16-entry ring should drop on this tree")
	}
	if sum := rep.UsefulPrimary.Time + rep.UsefulSpec.Time + rep.WastedSpec.Time; sum > rep.Busy {
		t.Fatalf("bucket sum %v exceeds total busy %v", sum, rep.Busy)
	}
}

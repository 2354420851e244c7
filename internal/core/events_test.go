package core

import (
	"testing"

	"ertree/internal/randtree"
)

// TestEventRingKeepLast pins the ring's bounded keep-last semantics: after
// wrapping, drain returns the newest cap events oldest-first and reports the
// overwritten count.
func TestEventRingKeepLast(t *testing.T) {
	r := &eventRing{buf: make([]Event, 0, 4)}
	for i := 0; i < 10; i++ {
		r.add(Event{Seq: uint64(i)})
	}
	events, drops := r.drain()
	if drops != 6 {
		t.Fatalf("drops = %d, want 6", drops)
	}
	if len(events) != 4 {
		t.Fatalf("len(events) = %d, want 4", len(events))
	}
	for i, e := range events {
		if want := uint64(6 + i); e.Seq != want {
			t.Fatalf("events[%d].Seq = %d, want %d (oldest-first rotation)", i, e.Seq, want)
		}
	}

	// A ring that never wrapped drains everything with zero drops.
	r = &eventRing{buf: make([]Event, 0, 8)}
	for i := 0; i < 3; i++ {
		r.add(Event{Seq: uint64(i)})
	}
	events, drops = r.drain()
	if drops != 0 || len(events) != 3 {
		t.Fatalf("unwrapped ring: %d events, %d drops; want 3, 0", len(events), drops)
	}
}

// TestEventRingExactDropAccounting: across capacity/push combinations, kept
// plus dropped always equals pushed, and what survives is exactly the newest
// cap events — the invariant the waste report relies on when it extrapolates
// from a wrapped ring.
func TestEventRingExactDropAccounting(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 32} {
		for _, pushes := range []int{0, 1, capacity - 1, capacity, capacity + 1, 3*capacity + 2} {
			if pushes < 0 {
				continue
			}
			r := &eventRing{buf: make([]Event, 0, capacity)}
			for i := 0; i < pushes; i++ {
				r.add(Event{Seq: uint64(i + 1)})
			}
			events, drops := r.drain()
			if int64(len(events))+drops != int64(pushes) {
				t.Fatalf("cap=%d pushes=%d: kept %d + dropped %d != pushed",
					capacity, pushes, len(events), drops)
			}
			wantDrops := int64(pushes - capacity)
			if wantDrops < 0 {
				wantDrops = 0
			}
			if drops != wantDrops {
				t.Fatalf("cap=%d pushes=%d: drops = %d, want %d", capacity, pushes, drops, wantDrops)
			}
			for i, e := range events {
				if want := uint64(pushes - len(events) + i + 1); e.Seq != want {
					t.Fatalf("cap=%d pushes=%d: events[%d].Seq = %d, want %d (newest cap, oldest-first)",
						capacity, pushes, i, e.Seq, want)
				}
			}
		}
	}
}

// TestFlightRecorderObservesSearch runs a real search with a generous ring
// and checks the log's internal consistency: one EvTask per counted task,
// every spawn introduces a fresh node with its parent already known, and the
// root is spawn-free.
func TestFlightRecorderObservesSearch(t *testing.T) {
	tree := &randtree.Tree{Seed: 3, Degree: 4, Depth: 6, ValueRange: 1000}
	sink := &hookSink{}
	opt := DefaultOptions()
	opt.Workers = 4
	// SerialDepth 0 keeps every generated node in the parallel tree, so
	// the spawn log must account for Stats.Generated exactly; serial
	// subtree tasks would generate nodes the recorder never sees.
	opt.SerialDepth = 0
	opt.Hooks = &Hooks{Events: 1 << 16, OnWorkerDone: sink.add}
	res, err := Search(tree.Root(), 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	var evTasks, tasks int64
	known := map[uint64]bool{RootSeq: true}
	var spawns []Event
	for _, wt := range sink.tels {
		if wt.EventDrops != 0 {
			t.Fatalf("%d drops with a 64k ring on a tiny search", wt.EventDrops)
		}
		tasks += wt.Tasks()
		for _, e := range wt.Events {
			if e.Kind >= NumEventKinds {
				t.Fatalf("invalid event kind %d", e.Kind)
			}
			switch e.Kind {
			case EvTask:
				evTasks++
				if e.Dur < 0 {
					t.Fatalf("negative task duration: %+v", e)
				}
			case EvSpawn:
				spawns = append(spawns, e)
			}
		}
	}
	if evTasks != tasks {
		t.Fatalf("%d EvTask events for %d counted tasks", evTasks, tasks)
	}
	// Spawns are recorded under the engine lock, so sorting by sequence
	// number recovers creation order: each child must be new and its
	// parent previously spawned (or the root).
	for range spawns {
		progress := false
		for i, e := range spawns {
			if e.Seq == 0 || known[e.Seq] || !known[e.Par] {
				continue
			}
			known[e.Seq] = true
			spawns[i].Seq = 0 // consumed
			progress = true
		}
		if !progress {
			break
		}
	}
	for _, e := range spawns {
		if e.Seq != 0 {
			t.Fatalf("spawn %+v has unknown parent or duplicate child", e)
		}
	}
	if int64(len(known)) != res.Stats.Generated {
		t.Fatalf("%d spawned nodes (incl. root), stats generated %d",
			len(known), res.Stats.Generated)
	}
}

// TestFlightRecorderBounded: a deliberately tiny ring must cap memory and
// report drops instead of growing.
func TestFlightRecorderBounded(t *testing.T) {
	tree := &randtree.Tree{Seed: 9, Degree: 5, Depth: 6, ValueRange: 1000}
	sink := &hookSink{}
	opt := DefaultOptions()
	opt.Workers = 2
	opt.Hooks = &Hooks{Events: 32, OnWorkerDone: sink.add}
	if _, err := Search(tree.Root(), 6, opt); err != nil {
		t.Fatal(err)
	}
	var drops int64
	for _, wt := range sink.tels {
		if len(wt.Events) > 32 {
			t.Fatalf("worker %d delivered %d events, ring bound is 32", wt.Worker, len(wt.Events))
		}
		// Exact accounting under overflow: a worker that reported drops was
		// wrapped, so it must deliver precisely the ring capacity — fewer
		// means drain lost kept events, more means the bound leaked.
		if wt.EventDrops > 0 && len(wt.Events) != 32 {
			t.Fatalf("worker %d dropped %d events but delivered %d, want exactly 32",
				wt.Worker, wt.EventDrops, len(wt.Events))
		}
		drops += wt.EventDrops
	}
	if drops == 0 {
		t.Fatal("a 32-entry ring on a depth-6 degree-5 search must wrap")
	}
}

// TestProfileLabelsSearch exercises the label path under the race detector
// and confirms it does not disturb the result.
func TestProfileLabelsSearch(t *testing.T) {
	tree := &randtree.Tree{Seed: 4, Degree: 4, Depth: 6, ValueRange: 1000}
	opt := DefaultOptions()
	opt.Workers = 4
	opt.SerialDepth = 2
	opt.ProfileLabels = true
	res, err := Search(tree.Root(), 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle(tree.Root(), 6); res.Value != want {
		t.Fatalf("labeled search value %d, want %d", res.Value, want)
	}
}

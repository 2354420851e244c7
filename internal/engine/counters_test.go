package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"ertree/internal/backend"
	"ertree/internal/connect4"
	"ertree/internal/game"
	"ertree/internal/obs"
	"ertree/internal/othello"
	"ertree/internal/randtree"
	"ertree/internal/tt"
)

// tableProbes, tableHits and tableStores count the table operations the
// searches of the "counted-*" backends issue.
var tableProbes, tableHits, tableStores atomic.Int64

// Register a "counted-<name>" twin of every search backend: the same backend
// over a table wrapper that counts what the backend's searches send to the
// table, independently of the searches' own Totals.
func init() {
	for _, inner := range []string{"er", "serial", "lazysmp"} {
		backend.Register("counted-"+inner, func(cfg backend.Config) backend.Backend {
			if cfg.Table != nil {
				cfg.Table = countedTable{cfg.Table}
			}
			be, err := backend.New(inner, cfg)
			if err != nil {
				panic(err)
			}
			return be
		})
	}
}

type countedTable struct{ tt.SharedTable }

func countProbe(ok bool) {
	tableProbes.Add(1)
	if ok {
		tableHits.Add(1)
	}
}

func (c countedTable) Probe(key uint64, depth int) (tt.Entry, bool) {
	en, ok := c.SharedTable.Probe(key, depth)
	countProbe(ok)
	return en, ok
}

func (c countedTable) ProbeDeep(key uint64, depth int) (tt.Entry, bool) {
	en, ok := c.SharedTable.ProbeDeep(key, depth)
	countProbe(ok)
	return en, ok
}

func (c countedTable) Store(key uint64, depth int, v game.Value, b tt.Bound) {
	tableStores.Add(1)
	c.SharedTable.Store(key, depth, v, b)
}

func (c countedTable) StoreDeep(key uint64, depth int, v game.Value, b tt.Bound) {
	tableStores.Add(1)
	c.SharedTable.StoreDeep(key, depth, v, b)
}

// TestTTTrafficCountedOnce: Stats counts every table operation of a session
// exactly once. The backends' searches count theirs in their Totals, and the
// session issues none of its own.
func TestTTTrafficCountedOnce(t *testing.T) {
	positions := []game.Position{connect4.New().MustDrop(3, 3, 2), othello.Start()}
	for _, be := range []string{"er", "serial", "lazysmp"} {
		for _, drv := range []string{"aspiration", "mtdf"} {
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("%s/%s/P%d", be, drv, workers)
				tableProbes.Store(0)
				tableHits.Store(0)
				tableStores.Store(0)
				e := New(Config{
					Backend: "counted-" + be, Driver: drv, Workers: workers,
					SerialDepth: 3, TableBits: 16,
				})
				for _, pos := range positions {
					if _, err := e.Analyze(context.Background(), pos, 5); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				st := e.Stats()
				if st.TTStores != tableStores.Load() {
					t.Errorf("%s: TTStores %d, the table saw %d stores", name, st.TTStores, tableStores.Load())
				}
				if st.TTProbes != tableProbes.Load() {
					t.Errorf("%s: TTProbes %d, the table saw %d probes", name, st.TTProbes, tableProbes.Load())
				}
				if st.TTHits != tableHits.Load() {
					t.Errorf("%s: TTHits %d, the table saw %d hits", name, st.TTHits, tableHits.Load())
				}
			}
		}
	}
}

// TestAddSampleAllocFree pins the self-monitor's read of a warm engine
// (counters, attribution maps and table all populated): filling a sample
// allocates nothing, so a background sampler makes no garbage.
func TestAddSampleAllocFree(t *testing.T) {
	e := New(Config{Workers: 1, TableBits: 10})
	tr := &randtree.Tree{Seed: 3, Degree: 3, Depth: 5, ValueRange: 100}
	if _, err := e.Analyze(context.Background(), tr.Root(), 4); err != nil {
		t.Fatal(err)
	}
	var sm obs.Sample
	allocs := testing.AllocsPerRun(100, func() {
		sm = obs.Sample{}
		e.AddSample(&sm)
	})
	if allocs != 0 {
		t.Fatalf("AddSample allocates %.1f times per call, want 0", allocs)
	}
	if sm.Sessions != 1 || sm.TTLen == 0 {
		t.Fatalf("sample missed the engine's reading: %+v", sm)
	}
}

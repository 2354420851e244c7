package tt

import (
	"sync"
	"testing"

	"ertree/internal/game"
)

// Concurrent depth-preferred replacement: StoreDeep never lets a shallower
// result evict a deeper one for the same position when writers do not race.
// The lock-free table is lossy by design: two unlocked writers can each pass
// the keep-deeper check against the same old entry and the shallower one can
// land last, so readers may see depth retreat across a race window. What it
// does guarantee, always: a ProbeDeep at floor f never returns an entry
// shallower than f, and no hit is ever corrupt (entries are written with
// Value == Depth so torn or mixed reads are detectable as a value/depth
// mismatch). Run with -race (as CI does) this doubles as the data-race check
// on both slot-access paths.

func TestStoreDeepConcurrentSameKey(t *testing.T) {
	for name, table := range impls(10) {
		t.Run(name, func(t *testing.T) {
			testStoreDeepConcurrentSameKey(t, table)
		})
	}
}

func testStoreDeepConcurrentSameKey(t *testing.T, table SharedTable) {
	const (
		key     = uint64(0xABCDEF123456)
		writers = 8
		readers = 4
		rounds  = 2000
		maxD    = 32
	)

	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})

	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			seen := -1
			for {
				select {
				case <-stop:
					return
				default:
				}
				e, ok := table.ProbeDeep(key, 0)
				if !ok {
					continue
				}
				if int(e.Value) != int(e.Depth) {
					t.Errorf("torn entry: depth %d value %d", e.Depth, e.Value)
					return
				}
				seen = int(e.Depth)
				// ProbeDeep at a positive floor must never hand back a
				// shallower entry than asked for.
				if e2, ok2 := table.ProbeDeep(key, seen); ok2 && int(e2.Depth) < seen {
					t.Errorf("ProbeDeep(depth=%d) returned depth %d", seen, e2.Depth)
					return
				}
			}
		}()
	}

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			x := uint64(w)*0x9E3779B97F4A7C15 + 1
			for i := 0; i < rounds; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				d := int(x % maxD)
				table.StoreDeep(key, d, game.Value(d), Exact)
			}
		}(w)
	}

	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	// A consistent entry must survive the store storm.
	e, ok := table.ProbeDeep(key, 0)
	if !ok {
		t.Fatal("no entry survived the store storm")
	}
	if int(e.Value) != int(e.Depth) || int(e.Depth) >= maxD {
		t.Fatalf("final entry inconsistent: depth %d value %d", e.Depth, e.Value)
	}
	// Once the writers quiesce, the sequential semantics hold: a deeper
	// StoreDeep wins, a shallower one loses.
	table.StoreDeep(key, maxD, game.Value(maxD), Exact)
	table.StoreDeep(key, 1, 1, Exact)
	if e, _ := table.ProbeDeep(key, 0); int(e.Depth) != maxD {
		t.Fatalf("shallow StoreDeep evicted deeper entry: depth %d", e.Depth)
	}
}

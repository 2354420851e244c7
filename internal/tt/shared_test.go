package tt

import (
	"sync"
	"testing"

	"ertree/internal/game"
)

// Table and Shared must implement the common capability.
var (
	_ Prober = (*Table)(nil)
	_ Prober = (*Shared)(nil)
)

func TestSharedRoundTrip(t *testing.T) {
	s := NewShared(10, 4)
	if s.Shards() != 4 {
		t.Fatalf("shards = %d, want 4", s.Shards())
	}
	if s.Len() != 1024 {
		t.Fatalf("len = %d, want 1024", s.Len())
	}
	s.Store(0xdeadbeef, 5, 42, Exact)
	e, ok := s.Probe(0xdeadbeef, 5)
	if !ok || e.Value != 42 || e.Bound != Exact || e.Depth != 5 {
		t.Fatalf("probe after store: %+v ok=%v", e, ok)
	}
	// Equal-depth matching: other depths miss.
	if _, ok := s.Probe(0xdeadbeef, 4); ok {
		t.Fatal("probe at wrong depth hit")
	}
	// A same-key store always wins, even at a shallower depth.
	s.Store(0xdeadbeef, 3, 7, Lower)
	if e, ok := s.Probe(0xdeadbeef, 3); !ok || e.Value != 7 || e.Bound != Lower {
		t.Fatalf("same-key restore: %+v ok=%v", e, ok)
	}
}

func TestSharedProbeDeep(t *testing.T) {
	s := NewShared(8, 2)
	s.Store(77, 6, -13, Exact)
	if e, ok := s.ProbeDeep(77, 4); !ok || e.Value != -13 || e.Depth != 6 {
		t.Fatalf("deeper entry not returned: %+v ok=%v", e, ok)
	}
	if _, ok := s.ProbeDeep(77, 7); ok {
		t.Fatal("shallower entry returned for deeper probe")
	}
	if e, ok := s.ProbeDeep(77, 6); !ok || e.Depth != 6 {
		t.Fatalf("exact-depth ProbeDeep: %+v ok=%v", e, ok)
	}
}

func TestSharedStoreDeep(t *testing.T) {
	s := NewShared(8, 2)
	s.StoreDeep(99, 6, 50, Exact)
	// A shallower same-key store must not evict the deeper entry.
	s.StoreDeep(99, 3, 11, Lower)
	if e, ok := s.ProbeDeep(99, 3); !ok || e.Value != 50 || e.Depth != 6 {
		t.Fatalf("shallow StoreDeep evicted deeper entry: %+v ok=%v", e, ok)
	}
	// An equal-depth same-key store refreshes the entry.
	s.StoreDeep(99, 6, 60, Lower)
	if e, ok := s.ProbeDeep(99, 6); !ok || e.Value != 60 || e.Bound != Lower {
		t.Fatalf("equal-depth StoreDeep did not refresh: %+v ok=%v", e, ok)
	}
	// A deeper store replaces, same key or not.
	s.StoreDeep(99, 8, 70, Exact)
	if e, ok := s.ProbeDeep(99, 8); !ok || e.Value != 70 {
		t.Fatalf("deeper StoreDeep did not replace: %+v ok=%v", e, ok)
	}
}

func TestSharedSmallTableClampsShards(t *testing.T) {
	s := NewShared(1, 1024)
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	if s.Shards() > s.Len() {
		t.Fatalf("%d shards for %d slots", s.Shards(), s.Len())
	}
	s.Store(1, 1, 9, Exact)
	if e, ok := s.Probe(1, 1); !ok || e.Value != 9 {
		t.Fatalf("tiny table roundtrip: %+v ok=%v", e, ok)
	}
}

// TestSharedConcurrentStress hammers one Shared table from 8 goroutines with
// interleaved probes and stores on an overlapping key set and asserts every
// hit returned a well-formed entry for the probed key and depth, and that
// Fill stays in range. Run under -race this is the concurrency proof for the
// engine's shared-table mode.
func TestSharedConcurrentStress(t *testing.T) {
	const (
		workers = 8
		rounds  = 5000
		keys    = 512
	)
	s := NewShared(12, 8)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			for i := 0; i < rounds; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				// Spread the key set across slots and stripes while keeping
				// it deterministic per (key, depth).
				key := (rng % keys) * 2654435761
				depth := int(rng>>32) % 6
				if i%3 == 0 {
					s.Store(key, depth, game.Value(int32(key*7)+int32(depth)), Bound(key%3))
				} else {
					if e, ok := s.Probe(key, depth); ok {
						if e.Key != key || int(e.Depth) != depth {
							t.Errorf("hit returned foreign entry: key %d depth %d got %+v", key, depth, e)
							return
						}
						// Values are a pure function of (key, depth), so a
						// hit must return exactly that value: torn or mixed
						// writes would surface here.
						if want := game.Value(int32(key*7) + int32(depth)); e.Value != want {
							t.Errorf("torn entry: key %d depth %d value %d want %d", key, depth, e.Value, want)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.Fill(); got > s.Len() || got == 0 {
		t.Fatalf("fill %d out of range (len %d)", got, s.Len())
	}
}

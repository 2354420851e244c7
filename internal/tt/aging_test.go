package tt

import (
	"testing"

	"ertree/internal/game"
)

// agingValue is the pure value function of the aging tests: every accepted
// entry must read back as exactly this for its (key, depth).
func agingValue(key uint64, depth int) game.Value {
	return game.Value(int32(key) ^ int32(depth)<<8)
}

// TestGenerationBump pins the generation plumbing: NewSearch advances it,
// and it wraps at 256 without disturbing stored entries.
func TestGenerationBump(t *testing.T) {
	for name, s := range impls(8) {
		t.Run(name, func(t *testing.T) {
			if s.Generation() != 0 {
				t.Fatalf("fresh table generation %d", s.Generation())
			}
			s.Store(42, 5, 9, Exact)
			for i := 0; i < 300; i++ {
				s.NewSearch()
			}
			if got, want := s.Generation(), uint8(300%256); got != want {
				t.Fatalf("generation after 300 bumps: %d, want %d", got, want)
			}
			if e, ok := s.Probe(42, 5); !ok || e.Value != 9 {
				t.Fatalf("entry lost across generation bumps: %+v ok=%v", e, ok)
			}
		})
	}
}

// TestLockFreeFreshShallowStoreAlwaysLands is the first half of the
// replacement property: however deep and full the bucket, a store from the
// current generation must land in some slot and be immediately probeable —
// the always-replace slot guarantees it. (This is exactly what the
// direct-mapped tables could not do: their single slot kept the deep
// stranger and dropped the fresh result.)
func TestLockFreeFreshShallowStoreAlwaysLands(t *testing.T) {
	s := NewLockFree(10)
	keys := lfBucketKeys(s, lfSlots+3)
	// Fill the bucket with maximally sticky entries: very deep, current
	// generation.
	for _, k := range keys[:lfSlots] {
		s.Store(k, 30, agingValue(k, 30), Exact)
	}
	s.NewSearch()
	// A depth-1 store from the new generation must still land.
	fresh := keys[lfSlots]
	s.Store(fresh, 1, agingValue(fresh, 1), Exact)
	if e, ok := s.Probe(fresh, 1); !ok || e.Value != agingValue(fresh, 1) {
		t.Fatalf("fresh shallow store did not land: %+v ok=%v", e, ok)
	}
}

// TestLockFreeDeepEntrySurvivesShallowChurn is the second half: a deep,
// recent entry in a preferred slot must survive a storm of shallow foreign
// stores (they cycle through the always-replace slot instead of evicting
// it), until the aging policy itself retires it.
func TestLockFreeDeepEntrySurvivesShallowChurn(t *testing.T) {
	s := NewLockFree(10)
	keys := lfBucketKeys(s, 64)
	deep := keys[0]
	s.Store(deep, 25, agingValue(deep, 25), Exact)
	// Shallow churn in the same generation: depth 1-3 foreign keys.
	for i, k := range keys[1:] {
		s.Store(k, 1+i%3, agingValue(k, 1+i%3), Lower)
	}
	if e, ok := s.Probe(deep, 25); !ok || e.Value != agingValue(deep, 25) {
		t.Fatalf("deep recent entry evicted by shallow churn: %+v ok=%v", e, ok)
	}

	// Now age it far enough that retention (25 - 2*age) drops below the
	// churn depth; the policy may and should retire it for fresh work.
	for i := 0; i < 15; i++ {
		s.NewSearch()
	}
	for i, k := range keys[1:] {
		s.Store(k, 1+i%3, agingValue(k, 1+i%3), Lower)
	}
	// Whether or not the deep entry survived (probes refresh generations, so
	// it may have been re-stamped), every probeable entry must be
	// uncorrupted: the value matches its own key and depth.
	hits := 0
	for _, k := range keys {
		if e, ok := s.ProbeDeep(k, 0); ok {
			hits++
			if e.Value != agingValue(k, int(e.Depth)) {
				t.Fatalf("corrupt entry after aging churn: key %x %+v", k, e)
			}
		}
	}
	if hits == 0 {
		t.Fatal("bucket empty after churn: stores are not landing at all")
	}
}

// TestLockFreeReplacementModelProperty is the randomized never-corrupt
// property over the full replacement policy: a single-threaded random
// workload of stores, deep stores, probes, and generation bumps, where every
// value is a pure function of (key, depth). Whatever the policy decides to
// keep or evict, a hit must always be exactly what some store wrote — wrong
// values, mixed fields, or phantom entries fail.
func TestLockFreeReplacementModelProperty(t *testing.T) {
	s := NewLockFree(8) // 64 buckets: heavy collision pressure
	rng := uint64(0xabcdef12345)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	stored := make(map[uint64]bool) // keys ever stored (any depth)
	stores, hits := 0, 0
	for i := 0; i < 200000; i++ {
		key := (next(2048) + 1) * 0x9e3779b97f4a7c15
		depth := int(next(24))
		switch next(5) {
		case 0:
			s.Store(key, depth, agingValue(key, depth), Bound(next(3)))
			stored[key] = true
			stores++
		case 1:
			s.StoreDeep(key, depth, agingValue(key, depth), Bound(next(3)))
			stored[key] = true
			stores++
		case 2:
			if e, ok := s.Probe(key, depth); ok {
				hits++
				if !stored[key] {
					t.Fatalf("phantom hit for never-stored key %x: %+v", key, e)
				}
				if int(e.Depth) != depth || e.Value != agingValue(key, depth) {
					t.Fatalf("probe corrupt: key %x depth %d -> %+v want value %d",
						key, depth, e, agingValue(key, depth))
				}
			}
		case 3:
			if e, ok := s.ProbeDeep(key, depth); ok {
				hits++
				if !stored[key] {
					t.Fatalf("phantom deep hit for never-stored key %x: %+v", key, e)
				}
				if int(e.Depth) < depth || e.Value != agingValue(key, int(e.Depth)) {
					t.Fatalf("deep probe corrupt: key %x floor %d -> %+v", key, depth, e)
				}
			}
		case 4:
			if next(50) == 0 {
				s.NewSearch()
			}
		}
	}
	if stores == 0 || hits == 0 {
		t.Fatalf("degenerate workload: %d stores, %d hits", stores, hits)
	}
}

package tt

import (
	"sync"
	"testing"

	"ertree/internal/game"
)

// impls builds one table per implementation for the contract tests below:
// every SharedTable semantics test runs against both the striped baseline
// and the lock-free table.
func impls(bits, shards int) map[string]SharedTable {
	return map[string]SharedTable{
		ImplStriped:  NewShared(bits, shards),
		ImplLockFree: NewLockFree(bits),
	}
}

// TestSharedTableContract runs the striped table's semantics suite against
// every implementation: equal-depth Probe/Store, the ProbeDeep/StoreDeep
// memory-reuse pair, and the same-key replacement rules.
func TestSharedTableContract(t *testing.T) {
	for name, s := range impls(10, 4) {
		t.Run(name+"/roundtrip", func(t *testing.T) {
			if s.Impl() != name {
				t.Fatalf("Impl() = %q, want %q", s.Impl(), name)
			}
			if s.Len() != 1024 {
				t.Fatalf("len = %d, want 1024", s.Len())
			}
			s.Store(0xdeadbeef, 5, 42, Exact)
			e, ok := s.Probe(0xdeadbeef, 5)
			if !ok || e.Value != 42 || e.Bound != Exact || e.Depth != 5 {
				t.Fatalf("probe after store: %+v ok=%v", e, ok)
			}
			if _, ok := s.Probe(0xdeadbeef, 4); ok {
				t.Fatal("probe at wrong depth hit")
			}
			s.Store(0xdeadbeef, 3, 7, Lower)
			if e, ok := s.Probe(0xdeadbeef, 3); !ok || e.Value != 7 || e.Bound != Lower {
				t.Fatalf("same-key restore: %+v ok=%v", e, ok)
			}
		})
	}
	for name, s := range impls(8, 2) {
		t.Run(name+"/probe-deep", func(t *testing.T) {
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
		})
	}
	for name, s := range impls(8, 2) {
		t.Run(name+"/store-deep", func(t *testing.T) {
			s.StoreDeep(99, 6, 50, Exact)
			s.StoreDeep(99, 3, 11, Lower)
			if e, ok := s.ProbeDeep(99, 3); !ok || e.Value != 50 || e.Depth != 6 {
				t.Fatalf("shallow StoreDeep evicted deeper entry: %+v ok=%v", e, ok)
			}
			s.StoreDeep(99, 6, 60, Lower)
			if e, ok := s.ProbeDeep(99, 6); !ok || e.Value != 60 || e.Bound != Lower {
				t.Fatalf("equal-depth StoreDeep did not refresh: %+v ok=%v", e, ok)
			}
			s.StoreDeep(99, 8, 70, Exact)
			if e, ok := s.ProbeDeep(99, 8); !ok || e.Value != 70 {
				t.Fatalf("deeper StoreDeep did not replace: %+v ok=%v", e, ok)
			}
		})
	}
}

// TestFactory pins the implementation registry servers and CLIs validate
// against: both names construct, empty falls back to the default, unknown
// names error with a message naming the valid set, and NewDefault honors the
// ERTREE_TABLE environment variable.
func TestFactory(t *testing.T) {
	for _, name := range Impls() {
		tbl, err := NewSharedTable(name, 10, 0)
		if err != nil {
			t.Fatalf("NewSharedTable(%q): %v", name, err)
		}
		if tbl.Impl() != name {
			t.Fatalf("NewSharedTable(%q).Impl() = %q", name, tbl.Impl())
		}
	}
	if !ValidImpl(ImplStriped) || !ValidImpl(ImplLockFree) || ValidImpl("nosuch") {
		t.Fatal("ValidImpl misclassifies")
	}
	t.Setenv(EnvTable, "") // hermetic: the host may export ERTREE_TABLE
	if tbl, err := NewSharedTable("", 10, 0); err != nil || tbl.Impl() != DefaultImpl {
		t.Fatalf("empty impl did not fall back to %q: %v", DefaultImpl, err)
	}
	if _, err := NewSharedTable("nosuch", 10, 0); err == nil {
		t.Fatal("unknown impl constructed")
	}
	t.Setenv(EnvTable, ImplStriped)
	if got := NewDefault(10, 0).Impl(); got != ImplStriped {
		t.Fatalf("NewDefault under ERTREE_TABLE=striped built %q", got)
	}
	t.Setenv(EnvTable, ImplLockFree)
	if got := NewDefault(10, 0).Impl(); got != ImplLockFree {
		t.Fatalf("NewDefault under ERTREE_TABLE=lockfree built %q", got)
	}
}

// TestIsNil guards the typed-nil trap the interface seam introduces: a nil
// pointer of either implementation wrapped in the interface must read as "no
// table".
func TestIsNil(t *testing.T) {
	if !IsNil(nil) || !IsNil((*Shared)(nil)) || !IsNil((*LockFree)(nil)) {
		t.Fatal("nil table not detected")
	}
	if IsNil(NewLockFree(8)) || IsNil(NewShared(8, 2)) {
		t.Fatal("live table read as nil")
	}
}

// TestLockFreeTornWriteSelfInvalidates injects the exact failure mode the
// XOR validation exists for: an entry whose check and data words come from
// different writes (a torn write, frozen mid-flight). The probe must treat
// the slot as empty — returning any entry would be returning a corrupt one.
func TestLockFreeTornWriteSelfInvalidates(t *testing.T) {
	s := NewLockFree(8)
	const keyA, keyB = 0x1111111111111100, 0x2222222222222200 // same bucket (same low bits)
	s.Store(keyA, 5, 10, Exact)
	b := s.bucket(keyA)
	i, _ := b.find(keyA)
	if i < 0 {
		t.Fatal("stored entry not found")
	}
	// Freeze a torn write: keyB's payload lands but keyA's check word is
	// still in place (a writer preempted between its two stores).
	b.words[2*i+1].Store(packEntry(9, 77, Lower, 0))
	if e, ok := s.Probe(keyA, 5); ok {
		t.Fatalf("torn slot validated under keyA: %+v", e)
	}
	if e, ok := s.Probe(keyB, 9); ok {
		t.Fatalf("torn slot validated under keyB: %+v", e)
	}
	if e, ok := s.ProbeDeep(keyA, 0); ok {
		t.Fatalf("torn slot validated under ProbeDeep: %+v", e)
	}
	// The slot is reusable: a clean write through the public API heals it.
	s.Store(keyB, 9, 77, Lower)
	if e, ok := s.Probe(keyB, 9); !ok || e.Value != 77 {
		t.Fatalf("clean store after torn write: %+v ok=%v", e, ok)
	}
}

// lfBucketKeys returns n distinct keys that all map to the same bucket of s,
// maximizing replacement pressure for the adversarial tests.
func lfBucketKeys(s *LockFree, n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i+1)<<40 | 0x33 // same low bits, distinct high bits
	}
	for _, k := range keys {
		if s.bucket(k) != s.bucket(keys[0]) {
			panic("test keys do not share a bucket")
		}
	}
	return keys
}

// lfWantValue is the pure value function of the stress tests: any hit
// returning a different value for its key is a torn or mixed entry.
func lfWantValue(key uint64, depth int) game.Value {
	return game.Value(int32(key*2654435761) + int32(depth))
}

// TestLockFreeTornWriteAdversarial hammers a single bucket from many
// goroutines with conflicting stores — the densest possible word-level race
// on the check/data pairs — and asserts every hit is internally consistent:
// the value is the pure function of the probed (key, depth). Run under -race
// this doubles as the data-race proof for the unlocked write path (atomics
// only, no mutexes).
func TestLockFreeTornWriteAdversarial(t *testing.T) {
	const (
		workers = 8
		rounds  = 4000
	)
	s := NewLockFree(10)
	keys := lfBucketKeys(s, 16)
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
				key := keys[rng%uint64(len(keys))]
				depth := int(rng>>32) % 8
				switch i % 3 {
				case 0:
					s.Store(key, depth, lfWantValue(key, depth), Bound(rng%3))
				case 1:
					s.StoreDeep(key, depth, lfWantValue(key, depth), Bound(rng%3))
				default:
					if e, ok := s.Probe(key, depth); ok {
						if e.Key != key || int(e.Depth) != depth {
							t.Errorf("hit returned foreign entry: key %x depth %d got %+v", key, depth, e)
							return
						}
						if want := lfWantValue(key, depth); e.Value != want {
							t.Errorf("torn entry surfaced: key %x depth %d value %d want %d", key, depth, e.Value, want)
							return
						}
					}
					// ProbeDeep may return any depth >= floor for the key;
					// its value must still match its own reported depth.
					if e, ok := s.ProbeDeep(key, 0); ok {
						if want := lfWantValue(key, int(e.Depth)); e.Value != want {
							t.Errorf("mixed deep entry: key %x %+v want value %d", key, e, want)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestLockFreeConcurrentStress is the striped table's whole-table stress run
// against the lock-free implementation: spread keys, mixed probe/store
// traffic, every hit well-formed, Fill in range.
func TestLockFreeConcurrentStress(t *testing.T) {
	const (
		workers = 8
		rounds  = 5000
		keys    = 512
	)
	s := NewLockFree(12)
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

// TestFillSampling pins the O(sample) Fill estimates of both
// implementations: exact on small tables, within a factor-of-two band on
// tables past the sample budget at a known uniform occupancy.
func TestFillSampling(t *testing.T) {
	for name, s := range impls(8, 2) {
		t.Run(name+"/small-exact", func(t *testing.T) {
			for i := 0; i < 10; i++ {
				s.Store(uint64(i)*2654435761+1, 3, 1, Exact)
			}
			if got := s.Fill(); got != 10 {
				t.Fatalf("small-table fill %d, want 10 exact", got)
			}
		})
	}
	// 2^20 slots, every slot's key visited: occupancy ~50% by storing every
	// other hash. The estimate must land in a loose band around the truth.
	for name, s := range impls(20, 0) {
		t.Run(name+"/large-estimate", func(t *testing.T) {
			stored := 0
			for i := 0; i < 1<<19; i++ {
				s.Store(uint64(i)*0x9e3779b97f4a7c15, 4, 7, Exact)
				stored++
			}
			got := s.Fill()
			if got < stored/2 || got > s.Len() {
				t.Fatalf("sampled fill %d implausible (stored %d distinct keys, len %d)", got, stored, s.Len())
			}
		})
	}
}

// TestSharedFillDoesNotBlockWriters asserts the striped Fill samples bounded
// slices per stripe: a scrape of a large table must complete while writers
// keep storing (the regression was a full-stripe scan under each shard
// mutex). This is a liveness smoke, not a timing benchmark: interleaved
// scrapes and stores simply must all finish.
func TestSharedFillDoesNotBlockWriters(t *testing.T) {
	s := NewShared(20, 4) // 256k slots per stripe: a full scan would dwarf the stores
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := uint64(w)
			for {
				select {
				case <-done:
					return
				default:
					k += 0x9e3779b97f4a7c15
					s.Store(k, 3, 1, Exact)
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		if f := s.Fill(); f < 0 || f > s.Len() {
			t.Errorf("fill %d out of range", f)
			break
		}
	}
	close(done)
	wg.Wait()
}

// TestLockFreeBucketLayout pins the cache-line packing: four entries per
// bucket, 64 bytes per bucket, and power-of-two bucket counts.
func TestLockFreeBucketLayout(t *testing.T) {
	var b lfBucket
	if got := len(b.words) * 8; got != 64 {
		t.Fatalf("bucket is %d bytes, want 64", got)
	}
	for _, bits := range []int{2, 10, 16} {
		s := NewLockFree(bits)
		if s.Len() != 1<<bits {
			t.Fatalf("bits=%d: len %d, want %d", bits, s.Len(), 1<<bits)
		}
		if n := len(s.buckets); n&(n-1) != 0 {
			t.Fatalf("bits=%d: %d buckets not a power of two", bits, n)
		}
	}
}

// TestPackUnpackRoundTrip exhausts the payload packing across the field
// extremes (negative values, max depth, every bound, generation wrap).
func TestPackUnpackRoundTrip(t *testing.T) {
	values := []game.Value{0, 1, -1, game.Inf - 1, -(game.Inf - 1), game.NoValue}
	depths := []int{0, 1, 17, 30, 1<<15 - 1}
	for _, v := range values {
		for _, d := range depths {
			for _, bd := range []Bound{Exact, Lower, Upper} {
				for _, g := range []uint8{0, 1, 128, 255} {
					data := packEntry(d, v, bd, g)
					e, gen := unpackEntry(42, data)
					if e.Value != v || int(e.Depth) != d || e.Bound != bd || gen != g || !e.used {
						t.Fatalf("round trip (%d,%d,%d,%d) -> %+v gen=%d",
							v, d, bd, g, e, gen)
					}
				}
			}
		}
	}
}

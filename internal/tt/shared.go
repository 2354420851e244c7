package tt

import (
	"sync"
	"sync/atomic"

	"ertree/internal/game"
)

// Prober is the probe/store capability common to Table and Shared, so search
// drivers can be written against either a private or a shared table.
type Prober interface {
	Probe(key uint64, depth int) (Entry, bool)
	Store(key uint64, depth int, value game.Value, bound Bound)
}

// Shared is the canonical Prober: core workers probe and store through this
// interface so tests can substitute counting or failing tables.
var _ Prober = (*Shared)(nil)

// Shared is a concurrent transposition table: one direct-mapped slot array
// divided into power-of-two shards, each guarded by its own mutex, so many
// searches on the same game can share one table with low lock contention
// (mutex striping).
//
// Probe and Store follow the same equal-depth-matching and
// deeper-stranger-replacement policy as Table; ProbeDeep adds the
// Plaat-style memory-reusing lookup iterative-deepening drivers want.
type Shared struct {
	shards    []sharedShard
	shardMask uint64
	slotMask  uint64
	slotBits  uint

	// gen is the aging generation of the SharedTable contract. The striped
	// table's direct-mapped replacement has no bucket to age within, so the
	// counter only feeds introspection (Stats gauges, head-to-head
	// comparisons with the lock-free table's aging policy).
	gen atomic.Uint32
}

type sharedShard struct {
	mu    sync.Mutex
	slots []Entry
	// Pad shards apart so neighboring mutexes do not share a cache line.
	_ [40]byte
}

// DefaultShards is the shard count used when NewShared is given zero: enough
// stripes that even a machine-full of workers rarely collides on a mutex.
const DefaultShards = 64

// NewShared creates a shared table with 2^bits total slots split across
// shards stripes (rounded to powers of two; 0 means DefaultShards). Each
// shard holds at least one slot, so very small tables get fewer stripes.
func NewShared(bits, shards int) *Shared {
	if bits < 1 {
		bits = 1
	}
	if bits > 30 {
		bits = 30
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	// Round the stripe count down to a power of two no larger than the
	// slot count.
	sbits := 0
	for 1<<(sbits+1) <= shards {
		sbits++
	}
	if sbits > bits-1 {
		sbits = bits - 1
	}
	nShards := 1 << uint(sbits)
	slotsPerShard := 1 << uint(bits-sbits)
	t := &Shared{
		shards:    make([]sharedShard, nShards),
		shardMask: uint64(nShards - 1),
		slotMask:  uint64(slotsPerShard - 1),
		slotBits:  uint(bits - sbits),
	}
	for i := range t.shards {
		t.shards[i].slots = make([]Entry, slotsPerShard)
	}
	return t
}

// shard maps key to its stripe and in-stripe slot. The global slot index is
// key mod 2^bits exactly as in Table; its low bits select the slot within
// the stripe and the bits above them the stripe, so Shared is one
// direct-mapped array that happens to be lock-striped.
func (t *Shared) shard(key uint64) (*sharedShard, uint64) {
	return &t.shards[(key>>t.slotBits)&t.shardMask], key & t.slotMask
}

// Probe looks up the entry for key at exactly the given depth, mirroring
// Table.Probe semantics under the shard lock.
func (t *Shared) Probe(key uint64, depth int) (Entry, bool) {
	s, i := t.shard(key)
	s.mu.Lock()
	e := s.slots[i]
	s.mu.Unlock()
	if !e.used || e.Key != key || int(e.Depth) != depth {
		return Entry{}, false
	}
	return e, true
}

// ProbeDeep looks up the entry for key at depth or deeper. A deeper entry is
// the memory-reusing hit of iterative deepening (Plaat et al.): the cached
// value answers a harder question than the probe asked, so a driver willing
// to trade exact depth-d semantics for reuse can accept it. Exact-depth
// matches behave exactly like Probe.
func (t *Shared) ProbeDeep(key uint64, depth int) (Entry, bool) {
	s, i := t.shard(key)
	s.mu.Lock()
	e := s.slots[i]
	s.mu.Unlock()
	if !e.used || e.Key != key || int(e.Depth) < depth {
		return Entry{}, false
	}
	return e, true
}

// Store saves a result under the shard lock, preferring deeper entries on
// collisions but always replacing entries from the same position — the same
// policy as Table.Store.
func (t *Shared) Store(key uint64, depth int, value game.Value, bound Bound) {
	s, i := t.shard(key)
	s.mu.Lock()
	e := &s.slots[i]
	if e.used && e.Key != key && int(e.Depth) > depth {
		s.mu.Unlock()
		return // keep the deeper stranger
	}
	*e = Entry{Key: key, Depth: int16(depth), Value: value, Bound: bound, used: true}
	s.mu.Unlock()
}

// StoreDeep saves a result but never lets a shallower search evict a deeper
// entry for the same position — the companion policy to ProbeDeep: in
// memory-reusing mode the deepest known result for a position is the one
// every later probe wants. Equal-depth same-key stores still refresh the
// entry, and foreign keys follow the deeper-stranger rule.
func (t *Shared) StoreDeep(key uint64, depth int, value game.Value, bound Bound) {
	s, i := t.shard(key)
	s.mu.Lock()
	e := &s.slots[i]
	if e.used && int(e.Depth) > depth {
		s.mu.Unlock()
		return // keep the deeper entry, same key or not
	}
	*e = Entry{Key: key, Depth: int16(depth), Value: value, Bound: bound, used: true}
	s.mu.Unlock()
}

// Len returns the total slot count.
func (t *Shared) Len() int {
	return len(t.shards) * len(t.shards[0].slots)
}

// Shards returns the stripe count.
func (t *Shared) Shards() int { return len(t.shards) }

// NewSearch bumps the aging generation (see the field comment: tracked for
// the SharedTable contract, not consulted by the direct-mapped replacement).
func (t *Shared) NewSearch() { t.gen.Add(1) }

// Generation returns the current generation (wraps at 256).
func (t *Shared) Generation() uint8 { return uint8(t.gen.Load()) }

// Impl names the implementation.
func (t *Shared) Impl() string { return ImplStriped }

// fillSampleBudget bounds the slots Fill visits across all stripes: the slot
// index is the low bits of a 64-bit hash, so occupancy is uniform and a few
// thousand slots estimate the fill of millions.
const fillSampleBudget = 4096

// Fill estimates the number of used slots. Tables at or under the sample
// budget are counted exactly; larger ones sample a prefix of each stripe
// under that stripe's lock and extrapolate, so a /stats scrape holds each
// shard mutex for at most budget/shards slots instead of a full-stripe scan
// blocking that stripe's writers for the whole sweep.
func (t *Shared) Fill() int {
	perShard := fillSampleBudget / len(t.shards)
	if perShard < 1 {
		perShard = 1
	}
	exact := perShard >= len(t.shards[0].slots)
	if exact {
		perShard = len(t.shards[0].slots)
	}
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for j := 0; j < perShard; j++ {
			if s.slots[j].used {
				n++
			}
		}
		s.mu.Unlock()
	}
	if exact {
		return n
	}
	sampled := perShard * len(t.shards)
	est := int(int64(n) * int64(t.Len()) / int64(sampled))
	if max := t.Len(); est > max {
		est = max
	}
	return est
}

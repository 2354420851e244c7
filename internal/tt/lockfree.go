package tt

import (
	"sync/atomic"

	"ertree/internal/game"
)

// LockFree is a lock-free fixed-size transposition table: cache-line buckets
// of four entries accessed with plain atomic loads and stores, no mutexes
// anywhere on the probe or store path.
//
// Correctness under concurrent unlocked writers follows Crafty's lockless
// hashing idiom: each entry is two adjacent 64-bit words, the packed payload
// and the key XORed with that payload. A reader recomputes key = check ^
// data; if a writer replaced one word between the reader's two loads, the
// XOR yields garbage that matches no probed key (collision probability
// 2^-64, the same as the hash itself), so a torn read self-invalidates
// instead of returning a corrupt entry. Writers never coordinate — the last
// word written wins and a mixed pair is simply an empty slot to every later
// probe.
//
// Replacement is bucketed and aging-aware, a policy a single direct-mapped
// slot cannot express: three depth-preferred slots keep the deepest recent
// results, one always-replace slot guarantees every store lands somewhere,
// and a generation counter bumped per engine session (NewSearch) ages
// entries so a deep stranger from a long-gone search stops shutting out
// fresh shallow results — the failure mode behind the near-zero
// hit rates a direct-mapped table recorded on the Table-3 workloads.
type LockFree struct {
	buckets []lfBucket
	mask    uint64 // len(buckets) - 1

	gen atomic.Uint32
}

// lfSlots is the entry count per bucket: four 16-byte entries fill one
// 64-byte cache line, so a probe touches exactly one line.
const lfSlots = 4

// lfBucket is one cache line: lfSlots (check, data) word pairs. words[2i] is
// entry i's check word (key ^ data), words[2i+1] its packed payload.
type lfBucket struct {
	words [2 * lfSlots]atomic.Uint64
}

// Payload packing: value in the low 32 bits, then depth, bound, generation,
// and the used flag. 59 bits total; the top 5 stay zero.
const (
	lfDepthShift = 32
	lfBoundShift = 48
	lfGenShift   = 50
	lfUsedBit    = 1 << 58

	lfGenMask = uint64(0xff) << lfGenShift
)

// lfAgePenalty is the replacement cost of staleness: each generation an
// entry has sat unrefreshed costs it this many plies of effective depth, so
// a depth-20 entry from eleven sessions ago loses a preferred slot to a
// fresh depth-1 result.
const lfAgePenalty = 2

// packEntry encodes an entry payload word.
func packEntry(depth int, value game.Value, bound Bound, gen uint8) uint64 {
	return uint64(uint32(value)) |
		uint64(uint16(int16(depth)))<<lfDepthShift |
		uint64(bound&3)<<lfBoundShift |
		uint64(gen)<<lfGenShift |
		lfUsedBit
}

// unpackEntry decodes a payload word (the caller has already validated the
// check word against the probed key).
func unpackEntry(key, data uint64) (Entry, uint8) {
	return Entry{
		Key:   key,
		Depth: int16(uint16(data >> lfDepthShift)),
		Value: game.Value(int32(uint32(data))),
		Bound: Bound(data >> lfBoundShift & 3),
		used:  true,
	}, uint8(data >> lfGenShift)
}

// NewLockFree creates a lock-free table with 2^bits total slots (bits in
// [2, 30]; at least one four-slot bucket).
func NewLockFree(bits int) *LockFree {
	if bits < 2 {
		bits = 2
	}
	if bits > 30 {
		bits = 30
	}
	n := (1 << uint(bits)) / lfSlots
	return &LockFree{
		buckets: make([]lfBucket, n),
		mask:    uint64(n - 1),
	}
}

// bucket maps a key to its cache line.
func (t *LockFree) bucket(key uint64) *lfBucket { return &t.buckets[key&t.mask] }

// load reads slot i of b, validating the XOR check against key. ok reports a
// well-formed used entry for exactly that key; a torn or foreign pair fails
// the check and reads as a miss.
func (b *lfBucket) load(i int, key uint64) (data uint64, ok bool) {
	check := b.words[2*i].Load()
	data = b.words[2*i+1].Load()
	return data, check^data == key && data&lfUsedBit != 0
}

// write publishes (key, data) into slot i: payload first, check last. No
// ordering is required for correctness — any interleaving with a concurrent
// writer produces a pair whose XOR matches neither key.
func (b *lfBucket) write(i int, key, data uint64) {
	b.words[2*i+1].Store(data)
	b.words[2*i].Store(key ^ data)
}

// find returns the slot holding key and its payload, or -1.
func (b *lfBucket) find(key uint64) (int, uint64) {
	for i := 0; i < lfSlots; i++ {
		if data, ok := b.load(i, key); ok {
			return i, data
		}
	}
	return -1, 0
}

// refresh re-stamps slot i's entry with the current generation, protecting a
// probed-and-hit entry from aging out. Racing a writer is fine: a mixed pair
// self-invalidates, losing one cache entry, never corrupting one.
func (t *LockFree) refresh(b *lfBucket, i int, key, data uint64) {
	nd := data&^lfGenMask | uint64(t.Generation())<<lfGenShift
	if nd != data {
		b.write(i, key, nd)
	}
}

// Probe looks up the entry for key at exactly the given depth (Table's
// equal-depth semantics).
func (t *LockFree) Probe(key uint64, depth int) (Entry, bool) {
	b := t.bucket(key)
	if i, data := b.find(key); i >= 0 {
		e, _ := unpackEntry(key, data)
		if int(e.Depth) == depth {
			t.refresh(b, i, key, data)
			return e, true
		}
	}
	return Entry{}, false
}

// ProbeDeep looks up the entry for key at depth or deeper, returning the
// deepest match in the bucket (concurrent StoreDeep racers can leave more
// than one copy of a key; the deepest is the one every memory-reusing driver
// wants).
func (t *LockFree) ProbeDeep(key uint64, depth int) (Entry, bool) {
	b := t.bucket(key)
	best, bestSlot, bestData := Entry{}, -1, uint64(0)
	for i := 0; i < lfSlots; i++ {
		data, ok := b.load(i, key)
		if !ok {
			continue
		}
		e, _ := unpackEntry(key, data)
		if int(e.Depth) >= depth && (bestSlot < 0 || e.Depth > best.Depth) {
			best, bestSlot, bestData = e, i, data
		}
	}
	if bestSlot < 0 {
		return Entry{}, false
	}
	t.refresh(b, bestSlot, key, bestData)
	return best, true
}

// Store saves a result under Table's Store policy: a same-key store always
// replaces (the backends salt keys with the depth, so same key means same
// depth).
func (t *LockFree) Store(key uint64, depth int, value game.Value, bound Bound) {
	t.store(key, depth, value, bound, false)
}

// StoreDeep saves a result but never lets a shallower same-key store evict a
// deeper entry — the companion policy to ProbeDeep.
func (t *LockFree) StoreDeep(key uint64, depth int, value game.Value, bound Bound) {
	t.store(key, depth, value, bound, true)
}

func (t *LockFree) store(key uint64, depth int, value game.Value, bound Bound, deep bool) {
	b := t.bucket(key)
	gen := t.Generation()
	data := packEntry(depth, value, bound, gen)

	// Same key already present: refresh in place (or keep the deeper entry
	// under the StoreDeep policy).
	if i, old := b.find(key); i >= 0 {
		e, _ := unpackEntry(key, old)
		if deep && int(e.Depth) > depth {
			return // keep the deeper entry
		}
		b.write(i, key, data)
		return
	}

	// An empty slot anywhere in the bucket takes the entry without evicting
	// anyone.
	for i := 0; i < lfSlots; i++ {
		if b.words[2*i+1].Load()&lfUsedBit == 0 {
			b.write(i, key, data)
			return
		}
	}

	// Bucket full. Among the depth-preferred slots (0..lfSlots-2), find the
	// victim with the least effective depth — stored depth discounted by
	// generation age — and take its slot if the new entry retains at least as
	// well. Otherwise fall through to the always-replace slot, so a shallow
	// fresh result still lands instead of losing to a deep stale stranger.
	victim, victimRetention := -1, 0
	for i := 0; i < lfSlots-1; i++ {
		d := b.words[2*i+1].Load()
		e, g := unpackEntry(0, d)
		age := int((gen - g) & 0xff)
		retention := int(e.Depth) - lfAgePenalty*age
		if victim < 0 || retention < victimRetention {
			victim, victimRetention = i, retention
		}
	}
	slot := lfSlots - 1 // the always-replace slot
	if victim >= 0 && depth >= victimRetention {
		slot = victim
	}
	b.write(slot, key, data)
}

// NewSearch bumps the generation: entries stored before the bump age by one.
func (t *LockFree) NewSearch() { t.gen.Add(1) }

// Generation returns the current generation (wraps at 256).
func (t *LockFree) Generation() uint8 { return uint8(t.gen.Load()) }

// Len returns the total slot count.
func (t *LockFree) Len() int { return len(t.buckets) * lfSlots }

// lfFillSample bounds the buckets Fill visits: occupancy is uniform under a
// 64-bit hash, so a thousand cache lines estimate the fill of a million.
const lfFillSample = 1024

// Fill estimates the number of used slots in O(lfFillSample) atomic loads:
// small tables are counted exactly, large ones sampled and extrapolated. No
// writer is ever blocked — there is nothing to block on.
func (t *LockFree) Fill() int {
	sample := len(t.buckets)
	if sample > lfFillSample {
		sample = lfFillSample
	}
	n := 0
	for i := 0; i < sample; i++ {
		for j := 0; j < lfSlots; j++ {
			if t.buckets[i].words[2*j+1].Load()&lfUsedBit != 0 {
				n++
			}
		}
	}
	if sample == len(t.buckets) {
		return n
	}
	est := int(int64(n) * int64(len(t.buckets)) / int64(sample))
	if max := t.Len(); est > max {
		est = max
	}
	return est
}

package core

import "time"

// workerSharded is the per-processor loop of the sharded-heap runtime. It
// differs from the global-heap worker in where the lock boundary sits: the
// pop happens first, against the worker's own shard (then by stealing), with
// no engine lock held at all; only with a task in hand does the worker take
// the engine lock to run it. The global heap instead pops under the engine
// lock, so at high worker counts every pop serializes the machine — the
// contention this runtime exists to remove.
//
// Termination protocol. A worker that finds every shard empty takes the
// engine lock and re-checks the sharded heap's queued counter under it;
// pushes increment that counter and call WakeAll while holding the same
// lock, so the check-then-wait has no lost-wakeup window. The counter can
// read zero while another worker still has a task in flight (popped but not
// yet processed) — that is fine: an in-flight task either finishes the root
// (the broadcast wakes everyone to exit), pushes new work (the push wakes
// the sleepers), or completes without descendants (no one needed waking).
// Steals in flight when the heap drains therefore cannot livelock the pool:
// every worker parks on the condition variable and the last in-flight task's
// lock-held epilogue is the only wake source left. The regression for this
// is TestShardedDrainNoLivelock.
func (s *state) workerSharded(w *wctx) {
	defer s.workerDone(w)
	rt := w.rt
	for {
		n, fromSpec := s.takeTask(w)
		if n == nil {
			rt.Lock()
			for !s.finished && !s.aborted && s.shards.queued.Load() == 0 {
				rt.WaitWork()
			}
			done := s.finished || s.aborted
			rt.Unlock()
			if done {
				return
			}
			continue
		}
		rt.Lock()
		if s.finished || s.aborted {
			// The search resolved while this task was in flight; it is
			// garbage now, and the arena release severs whatever it held.
			rt.Unlock()
			return
		}
		// Processing-time dequeue: the queued flag drops only here, under
		// the engine lock, so re-push checks elsewhere observe in-flight
		// nodes as still queued — the single-heap dedup semantics (see the
		// flag-discipline comment in shardheap.go).
		if fromSpec {
			if debugInvariants && !n.onSpec {
				panic("core: spec node popped twice (duplicate queue entry)")
			}
			n.onSpec = false
		} else {
			if debugInvariants && !n.inPrimary {
				panic("core: primary node popped twice (duplicate queue entry)")
			}
			n.inPrimary = false
		}
		if w.tel != nil {
			p, sp := s.shards.approxSizes()
			w.sampleHeap(p, sp)
		}
		s.runTask(n, fromSpec, w)
		rt.Unlock()
		s.flushStores(w)
	}
}

// takeTask fetches the worker's next task: its own shard first, then a steal
// from the busiest victim. Runs without the engine lock. Steal latency — the
// time from running dry to holding a stolen task — lands in the worker's
// telemetry shard when hooks are armed.
func (s *state) takeTask(w *wctx) (n *node, fromSpec bool) {
	if j := testPopJitter; j != nil {
		j(w.shard)
	}
	h := s.shards
	if n, fromSpec = h.popShard(w.shard); n != nil {
		return n, fromSpec
	}
	var t0 time.Time
	if w.tel != nil {
		t0 = time.Now()
	}
	n, fromSpec = h.steal(w.shard, w.nextRand())
	if n != nil && w.tel != nil {
		w.tel.Steals++
		w.tel.StealTime += time.Since(t0)
		// Only immutable node fields here: the thief does not yet hold the
		// engine lock, so mutable state (specBorn, value) is off limits.
		w.event(Event{Kind: EvSteal, Seq: n.seq, Ply: int32(n.ply)})
	}
	return n, fromSpec
}

// nextRand advances the worker's xorshift steal RNG.
func (w *wctx) nextRand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// stealRNGSeed derives a non-zero per-worker RNG state from the configured
// steal seed (splitmix64 of seed xor worker id).
func stealRNGSeed(seed uint64, worker int) uint64 {
	z := seed ^ (uint64(worker+1) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x9E3779B97F4A7C15
	}
	return z
}

// testPopJitter, when non-nil, is called at the top of every sharded pop
// round with the worker's shard index. The schedule fuzzer injects delays
// here to force rare interleavings (steals racing drains, pushes racing
// sleep). Set and cleared only while no search is running.
var testPopJitter func(worker int)

// debugInvariants arms internal-invariant panics (double finish, duplicate
// queue entries) that are too hot to check in production searches. Enabled
// by the fuzz/differential harnesses; set and cleared only while no search
// is running.
var debugInvariants bool

package tt

import (
	"fmt"

	"ertree/internal/game"
)

// Prober is the probe/store capability common to Table and SharedTable, so
// search drivers can be written against either a private or a shared table.
type Prober interface {
	Probe(key uint64, depth int) (Entry, bool)
	Store(key uint64, depth int, value game.Value, bound Bound)
}

// SharedTable is the full contract of a process-shared transposition table:
// the Prober probe/store pair the core workers use, the ProbeDeep/StoreDeep
// memory-reusing pair, occupancy introspection for the serving layer, and
// generation aging for replacement. A table counts no traffic: the code that
// issues a probe or store counts it (backend.Totals), so each count has one
// source and the probe and store paths share no counter cache line. LockFree
// is the one implementation; the interface lets tests and benchmarks wrap it
// to count or inject traffic.
type SharedTable interface {
	Prober
	// ProbeDeep looks up the entry for key at depth or deeper (Plaat-style
	// memory reuse); StoreDeep is its companion store that never lets a
	// shallower same-key result evict a deeper one.
	ProbeDeep(key uint64, depth int) (Entry, bool)
	StoreDeep(key uint64, depth int, value game.Value, bound Bound)
	// Len returns the total slot count; Fill estimates the occupied count
	// without stopping writers (implementations sample, so the value is an
	// estimate on large tables).
	Len() int
	Fill() int
	// NewSearch bumps the table's generation: entries stored before the bump
	// age, and aged entries lose replacement priority. Engines call it once
	// per admitted session.
	NewSearch()
	// Generation returns the current generation (wraps at 256).
	Generation() uint8
}

var _ SharedTable = (*LockFree)(nil)

// ImplLockFree names the shared-table implementation, the lock-free LockFree
// table. Configurations that name an implementation (engine.Config.TableImpl,
// the facade's NewSearchTable) accept it or the empty name.
const ImplLockFree = "lockfree"

// NewSharedTable builds a shared table with 2^bits slots. impl must be empty
// or ImplLockFree; any other name is an error, so a configuration naming a
// table that does not exist fails instead of silently getting this one.
func NewSharedTable(impl string, bits int) (SharedTable, error) {
	if impl != "" && impl != ImplLockFree {
		return nil, fmt.Errorf("tt: unknown table implementation %q (valid: %s)", impl, ImplLockFree)
	}
	return NewLockFree(bits), nil
}

// IsNil reports whether t is nil or a nil *LockFree wrapped in the
// interface. Callers that accept a SharedTable and branch on "no table" use
// it so a typed nil smuggled through the interface reads as absent.
func IsNil(t SharedTable) bool {
	if t == nil {
		return true
	}
	v, ok := t.(*LockFree)
	return ok && v == nil
}

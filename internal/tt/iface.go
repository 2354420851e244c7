package tt

import (
	"fmt"
	"os"
	"sort"

	"ertree/internal/game"
)

// SharedTable is the full contract of a process-shared transposition table:
// the Prober probe/store pair the core workers use, the ProbeDeep/StoreDeep
// memory-reusing pair of the deepening drivers, occupancy introspection for
// the serving layer, and generation aging for replacement. A table counts no
// traffic: the code that issues a probe or store counts it (backend.Totals),
// so each count has one source and the probe and store paths share no
// counter cache line. Two implementations register here: the mutex-striped
// Shared (the comparison baseline) and the lock-free LockFree table (the
// default).
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
	// Impl names the implementation ("striped" or "lockfree").
	Impl() string
}

// Both implementations satisfy the contract.
var (
	_ SharedTable = (*Shared)(nil)
	_ SharedTable = (*LockFree)(nil)
)

// Implementation names accepted by NewSharedTable.
const (
	// ImplStriped is the mutex-striped direct-mapped table (Shared), kept as
	// the lock-based comparison baseline.
	ImplStriped = "striped"
	// ImplLockFree is the lock-free bucketed table with XOR key validation
	// and aging replacement (LockFree).
	ImplLockFree = "lockfree"
)

// EnvTable is the environment variable consulted when no implementation name
// is given, so a test matrix (CI's table leg) can force every table in the
// process onto one implementation without threading a flag through each test.
const EnvTable = "ERTREE_TABLE"

// DefaultImpl is the table used when neither the caller nor EnvTable selects
// one: the lock-free table, the serving-scale default.
const DefaultImpl = ImplLockFree

// tableFactories maps implementation names to constructors. The striped
// table interprets shards as its stripe count; the lock-free table has no
// locks to stripe and ignores it.
var tableFactories = map[string]func(bits, shards int) SharedTable{
	ImplStriped:  func(bits, shards int) SharedTable { return NewShared(bits, shards) },
	ImplLockFree: func(bits, shards int) SharedTable { return NewLockFree(bits) },
}

// Impls returns the known implementation names, sorted.
func Impls() []string {
	out := make([]string, 0, len(tableFactories))
	for n := range tableFactories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ImplsString returns the known implementation names joined for error
// messages and flag help.
func ImplsString() string {
	s := ""
	for i, n := range Impls() {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}

// ValidImpl reports whether name is a known table implementation. The empty
// name is valid: it selects EnvTable's choice, then DefaultImpl.
func ValidImpl(name string) bool {
	if name == "" {
		return true
	}
	_, ok := tableFactories[name]
	return ok
}

// NewSharedTable builds the named table implementation with 2^bits slots.
// An empty name consults the ERTREE_TABLE environment variable and then
// falls back to DefaultImpl; an unknown name is an error naming the valid
// set, so servers and CLIs can surface a helpful message.
func NewSharedTable(impl string, bits, shards int) (SharedTable, error) {
	if impl == "" {
		impl = os.Getenv(EnvTable)
	}
	if impl == "" {
		impl = DefaultImpl
	}
	f, ok := tableFactories[impl]
	if !ok {
		return nil, fmt.Errorf("tt: unknown table implementation %q (valid: %s)", impl, ImplsString())
	}
	return f(bits, shards), nil
}

// NewDefault builds the table selected by ERTREE_TABLE (or DefaultImpl) and
// panics on an unknown name: it is the constructor tests and benchmarks use,
// where a misspelled matrix value should fail loudly, not fall back.
func NewDefault(bits, shards int) SharedTable {
	t, err := NewSharedTable("", bits, shards)
	if err != nil {
		panic(err)
	}
	return t
}

// IsNil reports whether t is nil or a typed nil pointer wrapped in the
// interface. Callers that accept a SharedTable and branch on "no table" use
// it so a (*Shared)(nil) smuggled through the interface reads as absent, the
// same way the plain pointer fields did before the interface seam.
func IsNil(t SharedTable) bool {
	if t == nil {
		return true
	}
	switch v := t.(type) {
	case *Shared:
		return v == nil
	case *LockFree:
		return v == nil
	}
	return false
}

// Package driver defines the root-driver seam of the deepening engine: the
// policy that turns one fixed-depth, fail-soft root search primitive into an
// exact root value for that depth. The engine's sessions run one driver
// resolution per deepening iteration; which windows the driver asks for — one
// wide aspiration window, or a converging sequence of null-window probes
// against the shared transposition table — is the whole difference between
// the classic wide-window deepening loop and Plaat et al.'s MTD(f) family.
//
// Two drivers register here:
//
//   - "aspiration": the engine's historical behavior — search a window around
//     the previous iteration's value, reopen the failed half on a fail-low or
//     fail-high, repeat until the value is interior. One or two wide
//     searches per iteration.
//   - "mtdf": MTD(f) — zero-window probes seeded from the previous
//     iteration's value, each probe returning a fail-soft bound that narrows
//     a monotone [lower, upper] envelope, with bound bisection after a few
//     adjacent-step probes, so no resolution spends more than ProbeBound
//     probes, whatever the table holds.
//
// The contract every driver honors: Resolve returns the exact depth-limited
// negamax value of the position the Search primitive searches, a root child
// index proving it, and the probe/re-search counts of the work spent. A
// driver never depends on the table being present or truthful for
// correctness — memory only makes the probes cheap.
package driver

import (
	"fmt"
	"sort"
	"sync"

	"ertree/internal/game"
)

// Search is the fixed-depth, fail-soft root search primitive a driver
// resolves through: it searches the session's position to the iteration's
// depth under w and returns the fail-soft root value (exact inside w, an
// upper bound at or below Alpha, a lower bound at or above Beta) plus the
// root child index proving it (-1 when no child was searched). Errors —
// cancellation, backend failure — abort the resolution.
type Search func(w game.Window) (move int, v game.Value, err error)

// Result reports one resolved iteration.
type Result struct {
	// Move is the root child index (natural move order) proving Value.
	Move int
	// Value is the exact depth-limited negamax value.
	Value game.Value
	// Researches counts wide-window searches beyond the first: aspiration
	// window reopenings (mtdf never re-searches).
	Researches int
	// Probes counts null-window probes (mtdf only; aspiration never probes).
	Probes int
}

// Config fixes a driver's policy knobs. The zero value is usable.
type Config struct {
	// Delta is the aspiration half-window around the previous iteration's
	// value (aspiration driver only). Zero searches every iteration with a
	// full window.
	Delta game.Value
}

// Default is the driver engines use when nothing selects one: the classic
// aspiration deepening loop, the behavior sessions had before drivers were
// selectable.
const Default = "aspiration"

// Driver resolves deepening iterations to exact root values.
type Driver interface {
	// Name returns the driver's registered name.
	Name() string
	// Resolve drives search (one fixed depth, already bound by the caller)
	// until the value is exact. prev is the previous iteration's exact value
	// — the aspiration center and the MTD(f) first guess — or game.NoValue
	// on the first iteration. Safe for concurrent use: a driver value holds
	// policy, never per-resolution state.
	Resolve(search Search, prev game.Value) (Result, error)
}

// Factory builds a driver from a config.
type Factory func(Config) Driver

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register makes a driver constructible by name. Duplicate registration
// panics, by design (same discipline as the backend registry): two packages
// claiming one name is a wiring bug.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("driver: %q registered twice", name))
	}
	registry[name] = f
}

// New builds the named driver, or an error naming the registered set so
// callers can surface a helpful message (erserve's 400, ertree's usage
// error).
func New(name string, cfg Config) (Driver, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("driver: unknown driver %q (registered: %s)", name, NamesString())
	}
	return f(cfg), nil
}

// Valid reports whether name is a registered driver.
func Valid(name string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := registry[name]
	return ok
}

// Names returns the registered driver names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NamesString returns the registered names joined for error messages.
func NamesString() string {
	s := ""
	for i, n := range Names() {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}

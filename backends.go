package ertree

import (
	"ertree/internal/backend"
	"ertree/internal/game"

	// Register the lazysmp backend so facade callers can select it by name.
	_ "ertree/internal/lazysmp"
)

// Backends returns the registered search-backend names, sorted: "er" (the
// paper's parallel scheduler), "serial" (single-threaded scout/PVS), and
// "lazysmp" (shared-table deepening workers), plus any backend a caller
// registered itself.
func Backends() []string { return backend.Names() }

// ValidBackend reports whether name is a registered search backend; servers
// and CLIs use it to reject unknown names with a message from Backends()
// instead of silently falling back.
func ValidBackend(name string) bool { return backend.Valid(name) }

// BackendResult is the outcome of one backend search: fail-soft value, the
// root child index proving it, per-child scores, and work totals. See
// internal/backend.Response.
type BackendResult = backend.Response

// SearchWith runs one fixed-depth, full-window search of pos on the named
// backend ("er", "serial", "lazysmp"), configured from cfg the same way
// Search configures parallel ER (workers, serial depth, ordering, shared
// table, speculation toggles). It is the head-to-head entry point: same
// position, same table policy, different scheduler.
func SearchWith(name string, pos Position, depth int, cfg Config) (BackendResult, error) {
	be, err := backend.New(name, backend.Config{
		Workers:            cfg.Workers,
		SerialDepth:        cfg.SerialDepth,
		Order:              cfg.Order,
		Table:              cfg.Table,
		ParallelRefutation: !cfg.DisableParallelRefutation,
		MultipleENodes:     !cfg.DisableMultipleENodes,
		EarlyChoice:        !cfg.DisableEarlyChoice,
		SpecRank:           cfg.SpecRank,
		EagerSpec:          cfg.EagerSpec,
		ProfileLabels:      cfg.ProfileLabels,
	})
	if err != nil {
		return BackendResult{}, err
	}
	w := game.FullWindow()
	if cfg.RootWindow != nil {
		w = *cfg.RootWindow
	}
	return be.Search(backend.Request{
		Pos:    pos,
		Depth:  depth,
		Window: w,
		Hooks:  cfg.Hooks,
	})
}

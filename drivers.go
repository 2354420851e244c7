package ertree

import "ertree/internal/driver"

// Drivers returns the registered root-driver names, sorted: "aspiration"
// (the classic wide-window deepening loop, the default) and "mtdf" (Plaat's
// null-window probe convergence against the shared transposition table),
// plus any driver a caller registered itself.
func Drivers() []string { return driver.Names() }

// ValidDriver reports whether name is a registered root driver; servers and
// CLIs use it to reject unknown names with a message from Drivers() instead
// of silently falling back.
func ValidDriver(name string) bool { return driver.Valid(name) }

// Package game defines the abstractions shared by every search algorithm in
// this repository: positions, value conventions, search windows, and move
// ordering policies.
//
// Values follow the negamax convention of the paper (§2): the value of a
// position is always from the point of view of the player whose turn it is to
// move, and the value of a position for one player is the negative of its
// value for the other.
package game

// Value is a position score in the negamax convention.
//
// Values are bounded by (-Inf, +Inf) so that negation never overflows and so
// that -Inf can serve as the identity for max.
type Value int32

const (
	// Inf is the largest representable score magnitude. Static evaluators
	// must return values strictly inside (-Inf, Inf).
	Inf Value = 1 << 30

	// NoValue marks a value slot that has not been assigned yet. It is more
	// negative than -Inf so it never collides with a legal score or bound.
	NoValue Value = -(Inf + 1)
)

// Position is a game state from the point of view of the player to move.
//
// Implementations must be usable by concurrent searches: methods may be
// called from multiple goroutines simultaneously, so they must either be
// read-only or internally synchronized. All implementations in this module
// are immutable values.
//
// A Position may also implement Expander, which writes its children into
// storage the caller owns. Such a child is valid only until the caller
// releases that storage (see Expander); the children Children returns have
// no such limit.
type Position interface {
	// Children returns the successor positions, one per legal move. A
	// position with no children is terminal. The order of the returned
	// slice is the game's natural move order; search algorithms apply
	// their own ordering policies on top of it.
	Children() []Position

	// Value is the static evaluation of the position from the point of
	// view of the player to move. It must lie strictly inside (-Inf, Inf).
	Value() Value
}

// Window is an alpha-beta window (Alpha, Beta). The window restricts search
// below a node: once a node's value reaches Beta the node is refuted (§2.1).
type Window struct {
	Alpha, Beta Value
}

// FullWindow is the unrestricted window (-Inf, +Inf) used at the root.
func FullWindow() Window { return Window{Alpha: -Inf, Beta: Inf} }

// Child returns the window to use when searching a child of a node that is
// being searched with window w and whose running value is v: (-Beta, -max(Alpha, v)).
func (w Window) Child(v Value) Window {
	a := w.Alpha
	if v > a {
		a = v
	}
	return Window{Alpha: -w.Beta, Beta: -a}
}

// Contains reports whether v lies strictly inside the window.
func (w Window) Contains(v Value) bool { return w.Alpha < v && v < w.Beta }

// Empty reports whether the window admits no strictly interior value.
func (w Window) Empty() bool { return w.Alpha >= w.Beta }

// FailSoft reports whether v is a correct fail-soft result of searching,
// under w, a position whose exact value is exact: v equals exact when it
// lies inside the window, is an upper bound (exact <= v <= Alpha) when it is
// at or below Alpha, and a lower bound (Beta <= v <= exact) when it is at or
// above Beta. It is the one contract every windowed search in this module
// honors.
func (w Window) FailSoft(v, exact Value) bool {
	switch {
	case v <= w.Alpha:
		return exact <= v
	case v >= w.Beta:
		return v <= exact
	default:
		return v == exact
	}
}

// Max returns the larger of a and b.
func Max(a, b Value) Value {
	if a > b {
		return a
	}
	return b
}

// Min returns the smaller of a and b.
func Min(a, b Value) Value {
	if a < b {
		return a
	}
	return b
}

package driver

import "ertree/internal/game"

func init() { Register("mtdf", newMTDF) }

// bisectAfter is how many adjacent-step probes mtdf tries before switching
// to bisection of the envelope.
const bisectAfter = 4

// ProbeBound is the most null-window probes one mtdf resolution can spend,
// whatever the search returns, consistent or not. Every probe tests a γ in
// the envelope (lower, upper] and moves one edge past it, so the envelope
// strictly shrinks; every bisected probe tests the envelope's ceiling
// midpoint, so it at least halves the width. The envelope starts 2·Inf =
// 2^31 wide, so after the bisectAfter adjacent steps at most 32 bisections
// empty it.
const ProbeBound = bisectAfter + 32

// mtdf is Plaat et al.'s MTD(f): only null-window probes, each one a cheap
// fail-soft test "is the value at least γ?", converging a monotone
// [lower, upper] envelope onto the exact value. The first guess is the
// previous iteration's value — which is why MTD(f) belongs to a deepening
// engine with a memory-rich transposition table: the probes keep re-visiting
// the same tree, and the table turns those re-visits into lookups.
//
// After bisectAfter adjacent-step probes (the classic "test next to the last
// result" step, which can creep one unit per probe when value estimates
// drift), the test point switches to bisection of the envelope, which
// converges in O(log range) probes no matter how the estimates jump — even
// when a table too small or too lossy to keep the probes' bounds stable (the
// Plaat pathology) makes the answers contradict each other. Termination
// never depends on the table: see ProbeBound.
type mtdf struct{}

func newMTDF(Config) Driver { return mtdf{} }

func (mtdf) Name() string { return "mtdf" }

func (mtdf) Resolve(search Search, prev game.Value) (Result, error) {
	r := Result{Move: -1}
	g := prev
	if g == game.NoValue {
		g = 0 // no previous iteration: probe around the draw score first
	}
	lower, upper := -game.Inf, game.Inf
	for lower < upper {
		var gamma game.Value
		if r.Probes < bisectAfter {
			// Adjacent step: test at the last result, nudged inside the
			// envelope (g == lower means "test whether it is even better").
			gamma = g
			if gamma <= lower {
				gamma = lower + 1
			}
			if gamma > upper {
				gamma = upper
			}
		} else {
			gamma = bisect(lower, upper)
		}
		move, v, err := search(game.Window{Alpha: gamma - 1, Beta: gamma})
		if err != nil {
			return r, err
		}
		r.Probes++
		g = v
		if v >= gamma {
			// Fail high: v is a lower bound, and move witnesses it. γ > lower
			// always, so the envelope strictly shrinks on every probe — the
			// loop terminates even against an inconsistent table.
			if v > lower {
				lower = v
			}
			r.Move = move
		} else if v < upper {
			// Fail low: v is an upper bound. No move can prove an upper
			// bound, so the witness from the last fail-high stands.
			upper = v
		}
	}
	// lower met upper: lower is the last proven bound and r.Move witnesses a
	// child achieving it, so it is the exact value with a proving move.
	r.Value = lower
	return r, nil
}

// bisect picks the next test point strictly inside (lower, upper]: the
// ceiling midpoint, computed in 64 bits because upper-lower can exceed the
// 32-bit value range when the envelope is still (-Inf, Inf).
func bisect(lower, upper game.Value) game.Value {
	return lower + game.Value((int64(upper)-int64(lower)+1)/2)
}

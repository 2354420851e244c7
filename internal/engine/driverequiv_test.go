package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"ertree/internal/connect4"
	"ertree/internal/driver"
	"ertree/internal/game"
	"ertree/internal/othello"
	"ertree/internal/randtree"
	"ertree/internal/ttt"
)

// equivCase is one (game, position, depth) case of the driver-equivalence
// differential suite — the same spread as the backend invariance suite, so a
// driver bug and a backend bug surface against the same oracle.
type equivCase struct {
	name  string
	pos   game.Position
	depth int
}

func equivCases() []equivCase {
	tr := &randtree.Tree{Seed: 17, Degree: 4, Depth: 7, ValueRange: 10000}
	c4 := connect4.New().MustDrop(3, 2)
	return []equivCase{
		{"ttt/start", ttt.New(), 6},
		{"connect4/after-3-2", c4, 6},
		{"othello/start", othello.Start(), 4},
		{"randtree/7x4", tr.Root(), 6},
	}
}

// TestDriverEquivalence is the differential contract of the root-driver seam:
// every driver on every backend at P ∈ {1,2,4} must deepen to the
// negamax-oracle value with a proving move, whatever window sequence the
// driver chose to get there. A tiny aspiration half-window (Delta 1) forces
// the fail-low/fail-high reopen paths, and the randtree case's swinging
// values force MTD(f) first guesses that are wrong in both directions.
// Run under -race this doubles as the drivers' shared-table stress test.
func TestDriverEquivalence(t *testing.T) {
	for _, tc := range equivCases() {
		want := oracle(tc.pos, tc.depth)
		kids := tc.pos.Children()
		for _, drvName := range driver.Names() {
			for _, beName := range []string{"serial", "er", "lazysmp"} {
				for _, p := range []int{1, 2, 4} {
					t.Run(fmt.Sprintf("%s/%s/%s/p%d", tc.name, drvName, beName, p), func(t *testing.T) {
						e := New(Config{
							Backend:     beName,
							Driver:      drvName,
							Workers:     p,
							SerialDepth: 2,
							TableBits:   14,
							Delta:       1,
						})
						an, err := e.Analyze(context.Background(), tc.pos, tc.depth)
						if err != nil {
							t.Fatal(err)
						}
						if !an.Completed || an.Depth != tc.depth {
							t.Fatalf("session stopped at depth %d/%d", an.Depth, tc.depth)
						}
						if an.Driver != drvName || an.Backend != beName {
							t.Fatalf("attributed to %s/%s, want %s/%s",
								an.Driver, an.Backend, drvName, beName)
						}
						if an.Value != want {
							t.Fatalf("value %d, oracle %d", an.Value, want)
						}
						if an.Move < 0 || an.Move >= len(kids) {
							t.Fatalf("move %d out of range (%d children)", an.Move, len(kids))
						}
						if got := -oracle(kids[an.Move], tc.depth-1); got != want {
							t.Fatalf("move %d does not prove the value: child value %d, want %d",
								an.Move, got, want)
						}
						for _, it := range an.Iterations {
							if it.Value != oracle(tc.pos, it.Depth) {
								t.Fatalf("depth %d: value %d, oracle %d",
									it.Depth, it.Value, oracle(tc.pos, it.Depth))
							}
							switch drvName {
							case "aspiration":
								if it.Probes != 0 {
									t.Fatalf("aspiration iteration reports %d probes", it.Probes)
								}
							default:
								if it.Probes == 0 {
									t.Fatalf("depth %d: %s resolved with no probes", it.Depth, drvName)
								}
								if it.Probes > driver.ProbeBound {
									t.Fatalf("depth %d: %d probes exceeds the driver's bound %d",
										it.Depth, it.Probes, driver.ProbeBound)
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestDriverEquivalenceNoTable repeats the oracle check without a
// transposition table: MTD(f) loses the memory that makes probes cheap but
// must degrade gracefully — same value, bounded probes, no looping — because
// driver termination never depends on the table.
func TestDriverEquivalenceNoTable(t *testing.T) {
	tc := equivCase{"randtree", (&randtree.Tree{Seed: 99, Degree: 4, Depth: 6, ValueRange: 5000}).Root(), 5}
	want := oracle(tc.pos, tc.depth)
	for _, drvName := range driver.Names() {
		for _, beName := range []string{"serial", "er", "lazysmp"} {
			t.Run(drvName+"/"+beName, func(t *testing.T) {
				e := New(Config{Backend: beName, Driver: drvName, Workers: 2, SerialDepth: 2})
				an, err := e.Analyze(context.Background(), tc.pos, tc.depth)
				if err != nil {
					t.Fatal(err)
				}
				if an.Value != want {
					t.Fatalf("value %d without table, oracle %d", an.Value, want)
				}
				st := e.Stats()
				if st.Probes > int64(tc.depth*driver.ProbeBound) {
					t.Fatalf("%d probes for %d iterations: more than the driver's bound %d per iteration",
						st.Probes, tc.depth, driver.ProbeBound)
				}
			})
		}
	}
}

// TestSessionDriverOverride: ?driver=-style per-session overrides are
// attributed per driver actually used, both in Stats and in the engine's
// probe counter, while the engine default stays what Config said.
func TestSessionDriverOverride(t *testing.T) {
	// Driver pinned: the subject is per-session override attribution against
	// a known default, independent of the CI matrix's ERTREE_DRIVER.
	e := New(Config{Driver: "aspiration", Workers: 1, TableBits: 12, Delta: 25})
	if e.Driver() != "aspiration" {
		t.Fatalf("default driver %q", e.Driver())
	}
	ctx := context.Background()
	pos := ttt.New()
	if _, err := e.AnalyzeSession(ctx, pos, 4, SessionOptions{}); err != nil {
		t.Fatal(err)
	}
	an, err := e.AnalyzeSession(ctx, pos, 4, SessionOptions{Driver: "mtdf"})
	if err != nil {
		t.Fatal(err)
	}
	if an.Driver != "mtdf" {
		t.Fatalf("override session attributed to %q", an.Driver)
	}
	st := e.Stats()
	if st.Driver != "aspiration" {
		t.Fatalf("Stats.Driver %q changed by a per-session override", st.Driver)
	}
	if st.DriverSessions["aspiration"] != 1 || st.DriverSessions["mtdf"] != 1 {
		t.Fatalf("driver sessions %v, want one each", st.DriverSessions)
	}
	if st.Probes == 0 {
		t.Fatal("mtdf session recorded no probes")
	}
}

// TestSessionDriverUnknown: an unregistered driver fails the session with
// ErrUnknownDriver before admission — Started stays zero and the rejection
// counters keep meaning "the engine was busy".
func TestSessionDriverUnknown(t *testing.T) {
	e := New(Config{Workers: 1})
	_, err := e.AnalyzeSession(context.Background(), ttt.New(), 3, SessionOptions{Driver: "nosuch"})
	if !errors.Is(err, ErrUnknownDriver) {
		t.Fatalf("err %v, want ErrUnknownDriver", err)
	}
	st := e.Stats()
	if st.Started != 0 || st.Rejected != 0 {
		t.Fatalf("pre-admission failure moved counters: started %d rejected %d",
			st.Started, st.Rejected)
	}
}

// TestConfigDriverEnv: an empty Config.Driver consults ERTREE_DRIVER (the CI
// driver matrix's knob), and an unknown value there panics in New like an
// unknown Config.Driver does.
func TestConfigDriverEnv(t *testing.T) {
	t.Setenv(EnvDriver, "mtdf")
	e := New(Config{Workers: 1})
	if e.Driver() != "mtdf" {
		t.Fatalf("driver %q, want the env-selected mtdf", e.Driver())
	}

	t.Setenv(EnvDriver, "nosuch")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unknown env driver did not panic")
			}
		}()
		New(Config{Workers: 1})
	}()
}

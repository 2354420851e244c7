package checkers

import (
	"math/rand"
	"strings"
	"testing"

	"ertree/internal/game"
	"ertree/internal/serial"
)

func TestStartPosition(t *testing.T) {
	b := Start()
	om, ok, pm, pk := b.Pieces()
	if om != 12 || pm != 12 || ok != 0 || pk != 0 {
		t.Fatalf("start pieces %d/%d men, %d/%d kings", om, pm, ok, pk)
	}
	if !b.BlackToMove() {
		t.Fatal("Black moves first")
	}
	moves := b.Moves()
	// Black's opening: men on row 2 (squares 8-11) each have up to two
	// forward steps; the classic count is 7.
	if len(moves) != 7 {
		t.Fatalf("start has %d moves, want 7:\n%v", len(moves), moves)
	}
	for _, m := range moves {
		if len(m.Captures) != 0 {
			t.Fatalf("opening move with captures: %v", m)
		}
	}
}

func TestSquareGeometry(t *testing.T) {
	// All 32 squares round-trip and are dark.
	for s := 0; s < 32; s++ {
		r, c := squareRC(s)
		if (r+c)&1 != 1 {
			t.Fatalf("square %d maps to light cell (%d,%d)", s, r, c)
		}
		if rcSquare(r, c) != s {
			t.Fatalf("square %d round-trips to %d", s, rcSquare(r, c))
		}
	}
	if rcSquare(0, 0) != -1 || rcSquare(-1, 1) != -1 || rcSquare(8, 1) != -1 {
		t.Fatal("invalid coordinates accepted")
	}
}

// build constructs a position from piece lists (1-based square numbers,
// matching standard checkers notation).
func build(blackMen, blackKings, whiteMen, whiteKings []int, blackToMove bool) Board {
	bm, bk, wm, wk := mask(blackMen), mask(blackKings), mask(whiteMen), mask(whiteKings)
	if blackToMove {
		return Board{ownMen: bm, ownKings: bk, oppMen: wm, oppKings: wk, blackToMove: true}
	}
	return Board{ownMen: wm, ownKings: wk, oppMen: bm, oppKings: bk, blackToMove: false}
}

func mask(squares []int) uint32 {
	var m uint32
	for _, s := range squares {
		m |= 1 << uint(s-1)
	}
	return m
}

func TestForcedCapture(t *testing.T) {
	// Black man on square 14 (row 3), White man on 18 (row 4) diagonally
	// adjacent: Black must jump.
	b := build([]int{14}, nil, []int{18}, nil, true)
	moves := b.Moves()
	if len(moves) != 1 {
		t.Fatalf("%d moves, want 1 forced jump:\n%s%v", len(moves), b, moves)
	}
	if len(moves[0].Captures) != 1 {
		t.Fatalf("move is not a capture: %v", moves[0])
	}
	after := b.Apply(moves[0])
	_, _, pm, pk := after.Pieces() // from White's perspective: opp = Black
	om, ok2, _, _ := after.Pieces()
	_ = pm
	_ = pk
	if om != 0 || ok2 != 0 {
		t.Fatalf("White should have no pieces left, has %d men %d kings:\n%s", om, ok2, after)
	}
}

func TestMultiJump(t *testing.T) {
	// Black man on 1; White men placed for a double jump: over 6 landing
	// 10 is wrong geometry — construct via neighbor arithmetic instead.
	s0 := 0 // square 1 (0-based 0)
	over1 := neighbor(s0, 1, 1)
	land1 := neighbor(s0, 2, 2)
	over2 := neighbor(land1, 1, 1)
	land2 := neighbor(land1, 2, 2)
	if over1 < 0 || land1 < 0 || over2 < 0 || land2 < 0 {
		t.Fatal("bad geometry for the fixture")
	}
	b := build([]int{s0 + 1}, nil, []int{over1 + 1, over2 + 1}, nil, true)
	moves := b.Moves()
	if len(moves) != 1 {
		t.Fatalf("%d moves, want the single double-jump:\n%s%v", len(moves), b, moves)
	}
	if len(moves[0].Captures) != 2 {
		t.Fatalf("expected a double jump, got %v", moves[0])
	}
	after := b.Apply(moves[0])
	om, ok2, _, _ := after.Pieces() // own = White now
	if om != 0 || ok2 != 0 {
		t.Fatalf("both White men should be captured:\n%s", after)
	}
}

func TestPromotion(t *testing.T) {
	// Black man one step from the back rank (row 6 -> row 7).
	from := rcSquare(6, 1)
	to := neighbor(from, 1, 1)
	b := build([]int{from + 1}, nil, []int{1}, nil, true) // white man parked on square 1
	var promoting *Move
	for i, m := range b.Moves() {
		if m.Path[len(m.Path)-1] == to {
			promoting = &b.Moves()[i]
			break
		}
	}
	if promoting == nil {
		t.Fatalf("no move to the back rank found: %v", b.Moves())
	}
	after := b.Apply(*promoting)
	_, _, pm, pk := after.Pieces() // opp = Black from White's view
	if pm != 0 || pk != 1 {
		t.Fatalf("promotion failed: opp has %d men %d kings\n%s", pm, pk, after)
	}
}

func TestPromotionEndsJumpSequence(t *testing.T) {
	// A man jumping onto the back rank stops even if another jump would be
	// available to a king.
	from := rcSquare(5, 2)
	over := neighbor(from, 1, 1) // row 6
	land := neighbor(from, 2, 2) // row 7: promotes
	if from < 0 || over < 0 || land < 0 {
		t.Fatal("bad geometry")
	}
	// Place a second white piece that WOULD be jumpable from `land` going
	// backward (only a king could).
	back := neighbor(land, -1, -1)
	_ = back
	b := build([]int{from + 1}, nil, []int{over + 1, 5}, nil, true)
	for _, m := range b.Moves() {
		if m.Path[len(m.Path)-1] == land && len(m.Captures) > 1 {
			t.Fatalf("jump continued past promotion: %v", m)
		}
	}
}

func TestKingMovesBackward(t *testing.T) {
	s := rcSquare(4, 3)
	b := build(nil, []int{s + 1}, []int{29}, nil, true)
	dirs := 0
	for _, m := range b.Moves() {
		if m.Path[0] == s {
			dirs++
		}
	}
	if dirs != 4 {
		t.Fatalf("king has %d moves, want 4:\n%s%v", dirs, b, b.Moves())
	}
}

func TestManCannotMoveBackward(t *testing.T) {
	s := rcSquare(4, 3)
	b := build([]int{s + 1}, nil, []int{29}, nil, true)
	for _, m := range b.Moves() {
		to := m.Path[len(m.Path)-1]
		tr, _ := squareRC(to)
		if tr <= 4 && m.Path[0] == s {
			t.Fatalf("man moved sideways/backward: %v", m)
		}
	}
}

func TestNoMovesIsLoss(t *testing.T) {
	// White to move with a single man completely blocked in a corner by
	// Black pieces it cannot jump (double-blocked).
	// White man on square 29 (0-based 28, row 7 corner region)... use
	// geometry: White man at top row cannot move forward (dir -1 is down);
	// block both diagonals with protected black pieces.
	wm := rcSquare(0, 1) // White man on the bottom row moving -1: no rows below -> stuck
	b := build([]int{32}, nil, []int{wm + 1}, nil, false)
	if !b.Terminal() {
		t.Fatalf("expected terminal (White stuck):\n%s%v", b, b.Moves())
	}
	if b.Value() != -10000 {
		t.Fatalf("stuck side value %d, want -10000", b.Value())
	}
	if b.Children() != nil {
		t.Fatal("terminal position has children")
	}
}

var (
	sinkValue game.Value
	sinkBool  bool
)

// TestValueAndTerminalAllocFree pins the leaf path: Value and Terminal only
// ask whether the side to move has a legal move, which needs no move list.
func TestValueAndTerminalAllocFree(t *testing.T) {
	b := Start()
	for ply := 0; ply < 12; ply++ {
		moves := b.Moves()
		b = b.Apply(moves[ply%len(moves)])
	}
	if a := testing.AllocsPerRun(100, func() { sinkValue = b.Value() }); a != 0 {
		t.Errorf("Value made %.1f allocations, want 0\n%s", a, b)
	}
	if a := testing.AllocsPerRun(100, func() { sinkBool = b.Terminal() }); a != 0 {
		t.Errorf("Terminal made %.1f allocations, want 0\n%s", a, b)
	}
}

func TestEvaluatorAntisymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := Start()
	for i := 0; i < 30 && !b.Terminal(); i++ {
		swapped := Board{
			ownMen: b.oppMen, ownKings: b.oppKings,
			oppMen: b.ownMen, oppKings: b.ownKings,
			blackToMove: !b.blackToMove,
		}
		if !b.Terminal() && !swapped.Terminal() {
			if b.Value() != -swapped.Value() {
				t.Fatalf("evaluator not antisymmetric at ply %d: %d vs %d\n%s", i, b.Value(), swapped.Value(), b)
			}
		}
		moves := b.Moves()
		b = b.Apply(moves[rng.Intn(len(moves))])
	}
}

func TestPieceConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for g := 0; g < 20; g++ {
		b := Start()
		for i := 0; i < 60 && !b.Terminal(); i++ {
			om, ok, pm, pk := b.Pieces()
			before := om + ok + pm + pk
			moves := b.Moves()
			mv := moves[rng.Intn(len(moves))]
			b = b.Apply(mv)
			om, ok, pm, pk = b.Pieces()
			after := om + ok + pm + pk
			if after != before-len(mv.Captures) {
				t.Fatalf("pieces %d -> %d with %d captures", before, after, len(mv.Captures))
			}
			if om+ok > 12 || pm+pk > 12 {
				t.Fatalf("side exceeds 12 pieces")
			}
		}
	}
}

func TestSearchAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		b := Start()
		for i := 0; i < rng.Intn(12); i++ {
			if b.Terminal() {
				break
			}
			moves := b.Moves()
			b = b.Apply(moves[rng.Intn(len(moves))])
		}
		var s serial.Searcher
		want := s.Negmax(b, 5)
		if got := s.AlphaBeta(b, 5, game.FullWindow()); got != want {
			t.Fatalf("trial %d: alpha-beta %d, negmax %d\n%s", trial, got, want, b)
		}
		if got := s.ER(b, 5, game.FullWindow()); got != want {
			t.Fatalf("trial %d: ER %d, negmax %d\n%s", trial, got, want, b)
		}
	}
}

func TestMoveNotation(t *testing.T) {
	b := Start()
	moves := b.Moves()
	for _, m := range moves {
		s := m.String()
		if !strings.Contains(s, "-") {
			t.Fatalf("quiet move notation %q missing '-'", s)
		}
	}
	jump := Move{Path: []int{13, 22}, Captures: []int{17}}
	if jump.String() != "14x23" {
		t.Fatalf("jump notation %q, want 14x23", jump.String())
	}
}

func TestHashDiscriminates(t *testing.T) {
	a := Start()
	moves := a.Moves()
	b := a.Apply(moves[0])
	if a.Hash() == b.Hash() {
		t.Fatal("hash unchanged by a move")
	}
	if a.Hash() != Start().Hash() {
		t.Fatal("equal positions hash differently")
	}
}

func TestRenderShowsSide(t *testing.T) {
	s := Start().String()
	if !strings.Contains(s, "BLACK") {
		t.Fatalf("render missing side to move:\n%s", s)
	}
}

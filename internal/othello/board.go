// Package othello implements the game of Othello (Reversi), the real-game
// workload of the paper's experiments (§7). The paper used an Othello
// program by Steven Scott; that program is not available, so this package is
// a from-scratch bitboard implementation with a classic static evaluator in
// the spirit of Rosenbloom's Iago features (positional weights, mobility,
// corners, disc parity). See DESIGN.md §3 for the substitution rationale.
//
// Boards are immutable values and safe for concurrent use.
package othello

import (
	"fmt"
	"math/bits"
	"strings"

	"ertree/internal/game"
)

// Board is an Othello position from the point of view of the player to move
// ("own"). Bit i of a bitboard corresponds to square i, with a1 = bit 0,
// h1 = bit 7, a8 = bit 56 (row-major from White's side of the board).
type Board struct {
	own, opp uint64
	// blackToMove tracks which color "own" is, for display and for
	// constructing positions with a specific side to move.
	blackToMove bool
	// prevPassed records that the previous player passed; two consecutive
	// passes end the game.
	prevPassed bool
}

var (
	_ game.Position = Board{}
	_ game.Expander = Board{}
)

const (
	fileA uint64 = 0x0101010101010101
	fileH uint64 = 0x8080808080808080
	notA         = ^fileA
	notH         = ^fileH
)

// Start returns the standard initial position with Black to move.
func Start() Board {
	// d4, e5 white; d5, e4 black (standard setup).
	white := sq("d4") | sq("e5")
	black := sq("d5") | sq("e4")
	return Board{own: black, opp: white, blackToMove: true}
}

// sq converts algebraic notation ("a1".."h8") to a bitboard with one bit set.
func sq(s string) uint64 {
	i, err := SquareIndex(s)
	if err != nil {
		panic(err)
	}
	return 1 << uint(i)
}

// SquareIndex converts algebraic notation to a square index 0..63.
func SquareIndex(s string) (int, error) {
	if len(s) != 2 || s[0] < 'a' || s[0] > 'h' || s[1] < '1' || s[1] > '8' {
		return 0, fmt.Errorf("othello: bad square %q", s)
	}
	return int(s[1]-'1')*8 + int(s[0]-'a'), nil
}

// SquareName converts a square index to algebraic notation.
func SquareName(i int) string {
	return string([]byte{byte('a' + i%8), byte('1' + i/8)})
}

// shift moves every bit one step in direction d (0..7), handling board-edge
// wraparound.
func shift(b uint64, d int) uint64 {
	switch d {
	case 0: // east
		return (b & notH) << 1
	case 1: // west
		return (b & notA) >> 1
	case 2: // north
		return b << 8
	case 3: // south
		return b >> 8
	case 4: // north-east
		return (b & notH) << 9
	case 5: // north-west
		return (b & notA) << 7
	case 6: // south-east
		return (b & notH) >> 7
	default: // south-west
		return (b & notA) >> 9
	}
}

// legalMoves returns the bitboard of squares where "own" may move.
func legalMoves(own, opp uint64) uint64 {
	empty := ^(own | opp)
	var moves uint64
	for d := 0; d < 8; d++ {
		t := shift(own, d) & opp
		for i := 0; i < 5; i++ {
			t |= shift(t, d) & opp
		}
		moves |= shift(t, d) & empty
	}
	return moves
}

// flipsFor returns the discs flipped if "own" plays on square bit m.
func flipsFor(own, opp, m uint64) uint64 {
	var flips uint64
	for d := 0; d < 8; d++ {
		var line uint64
		t := shift(m, d) & opp
		for t != 0 {
			line |= t
			next := shift(t, d)
			if next&own != 0 {
				flips |= line
				break
			}
			t = next & opp
		}
	}
	return flips
}

// Moves returns the list of legal move squares for the player to move.
func (b Board) Moves() []int {
	m := legalMoves(b.own, b.opp)
	out := make([]int, 0, bits.OnesCount64(m))
	for m != 0 {
		i := bits.TrailingZeros64(m)
		out = append(out, i)
		m &= m - 1
	}
	return out
}

// Play applies a move on square i and returns the resulting position (with
// the opponent to move). It reports whether the move was legal. Pass with
// i < 0; passing is legal only when no move is available.
func (b Board) Play(i int) (Board, bool) {
	if i < 0 {
		if legalMoves(b.own, b.opp) != 0 {
			return b, false
		}
		return Board{own: b.opp, opp: b.own, blackToMove: !b.blackToMove, prevPassed: true}, true
	}
	m := uint64(1) << uint(i)
	if m&(b.own|b.opp) != 0 || m&legalMoves(b.own, b.opp) == 0 {
		return b, false
	}
	flips := flipsFor(b.own, b.opp, m)
	if flips == 0 {
		return b, false
	}
	return Board{
		own:         b.opp &^ flips,
		opp:         b.own | flips | m,
		blackToMove: !b.blackToMove,
	}, true
}

// MustPlay applies a sequence of algebraic moves ("pass" allowed) and panics
// on an illegal move. Used to construct fixture positions.
func (b Board) MustPlay(moves ...string) Board {
	for _, mv := range moves {
		var nb Board
		var ok bool
		if mv == "pass" {
			nb, ok = b.Play(-1)
		} else {
			i, err := SquareIndex(mv)
			if err != nil {
				panic(err)
			}
			nb, ok = b.Play(i)
		}
		if !ok {
			panic(fmt.Sprintf("othello: illegal move %q on\n%s", mv, b))
		}
		b = nb
	}
	return b
}

// Terminal reports whether the game is over (neither player can move).
func (b Board) Terminal() bool {
	if b.own|b.opp == ^uint64(0) {
		return true
	}
	return legalMoves(b.own, b.opp) == 0 && legalMoves(b.opp, b.own) == 0
}

// Children implements game.Position: one child per legal move, or a single
// pass child when only the opponent can move, or nil when the game is over.
func (b Board) Children() []game.Position {
	var buf [childBuf]Board
	return game.Boxed(b.appendChildren(buf[:0]))
}

// AppendChildren implements game.Expander: the children Children returns,
// stored in slab.
func (b Board) AppendChildren(dst []game.Position, slab *game.Slab) []game.Position {
	var buf [childBuf]Board
	return game.AppendStored(dst, slab, b.appendChildren(buf[:0]))
}

// childBuf is how many children are generated on the stack: the most legal
// moves any reachable Othello position has. A board built by Parse may have
// more; those spill to the heap.
const childBuf = 33

// appendChildren appends the position's children to out: the move rules
// Children and AppendChildren share.
func (b Board) appendChildren(out []Board) []Board {
	moves := legalMoves(b.own, b.opp)
	if moves == 0 {
		if legalMoves(b.opp, b.own) == 0 {
			return out // game over
		}
		child, _ := b.Play(-1)
		return append(out, child)
	}
	for m := moves; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		child, ok := b.Play(i)
		if !ok {
			panic("othello: legal move rejected")
		}
		out = append(out, child)
	}
	return out
}

// Discs returns the disc counts (own, opp).
func (b Board) Discs() (own, opp int) {
	return bits.OnesCount64(b.own), bits.OnesCount64(b.opp)
}

// BlackToMove reports whether Black is the player to move.
func (b Board) BlackToMove() bool { return b.blackToMove }

// String renders the board with Black as 'X', White as 'O', and legal moves
// for the side to move as '*'.
func (b Board) String() string {
	black, white := b.own, b.opp
	if !b.blackToMove {
		black, white = white, black
	}
	moves := legalMoves(b.own, b.opp)
	var sb strings.Builder
	side := "BLACK" // renders without any cell characters so Parse(String()) round-trips
	if !b.blackToMove {
		side = "WHITE"
	}
	fmt.Fprintf(&sb, "  a b c d e f g h   turn: %s\n", side)
	for r := 7; r >= 0; r-- {
		fmt.Fprintf(&sb, "%d ", r+1)
		for c := 0; c < 8; c++ {
			m := uint64(1) << uint(r*8+c)
			switch {
			case black&m != 0:
				sb.WriteString("X ")
			case white&m != 0:
				sb.WriteString("O ")
			case moves&m != 0:
				sb.WriteString("* ")
			default:
				sb.WriteString(". ")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Parse builds a Board from a rendering like the one String produces, given
// explicitly which side is to move. Cells must be uppercase 'X' (Black),
// uppercase 'O' (White), '.', or '*' (legal-move markers, treated as empty);
// all other characters, including lowercase letters, are skipped so that
// String's header and rank digits are harmless.
func Parse(diagram string, blackToMove bool) (Board, error) {
	var black, white uint64
	i := 0
	for _, r := range diagram {
		switch r {
		case 'X':
			black |= 1 << uint(i)
			i++
		case 'O':
			white |= 1 << uint(i)
			i++
		case '.', '*':
			i++
		}
		if i == 64 {
			break
		}
	}
	if i != 64 {
		return Board{}, fmt.Errorf("othello: diagram has %d cells, want 64", i)
	}
	// Diagrams are written top row (rank 8) first; flip vertically.
	black = flipVertical(black)
	white = flipVertical(white)
	b := Board{blackToMove: blackToMove}
	if blackToMove {
		b.own, b.opp = black, white
	} else {
		b.own, b.opp = white, black
	}
	return b, nil
}

func flipVertical(x uint64) uint64 {
	var y uint64
	for r := 0; r < 8; r++ {
		y |= ((x >> uint(8*r)) & 0xFF) << uint(8*(7-r))
	}
	return y
}

// Hash returns a 64-bit position hash for transposition tables. Two boards
// with the same discs and the same side to move hash equal (the pass-history
// flag does not affect the reachable subtree, so it is excluded).
func (b Board) Hash() uint64 {
	h := mix64(b.own)
	h ^= mix64(b.opp + 0x9E3779B97F4A7C15)
	if b.blackToMove {
		h ^= 0xD1B54A32D192ED03
	}
	return mix64(h)
}

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

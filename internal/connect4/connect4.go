// Package connect4 implements Connect Four on bitboards. It is an
// additional real-game workload beyond the paper's Othello: a strongly
// ordered game (center columns dominate) with a cheap evaluator, useful for
// exercising the searches on a second realistic move-ordering profile.
//
// Encoding: each column occupies 7 bits (6 playable rows plus a padding
// bit), bit index = column*7 + row with row 0 at the bottom. One bitboard
// holds the stones of the player to move ("own"), another all occupied
// cells.
package connect4

import (
	"fmt"
	"math/bits"
	"strings"

	"ertree/internal/game"
)

// Board dimensions.
const (
	Cols   = 7
	Rows   = 6
	stride = Rows + 1 // bits per column (one padding bit)
)

var fullMask = ((uint64(1) << (stride * Cols)) - 1) &^ topPadding

// topPadding has the padding bit of every column set.
var topPadding = func() uint64 {
	var m uint64
	for c := 0; c < Cols; c++ {
		m |= 1 << uint(c*stride+Rows)
	}
	return m
}()

// Board is a Connect Four position from the point of view of the player to
// move. It implements game.Position.
type Board struct {
	own uint64 // stones of the player to move
	all uint64 // all stones
	ply int    // stones played
}

var (
	_ game.Position = Board{}
	_ game.Expander = Board{}
)

// New returns the empty board (first player to move).
func New() Board { return Board{} }

// colTop returns the bit of the lowest free cell in column c, or 0 if full.
func (b Board) colTop(c int) uint64 {
	colBits := (b.all >> uint(c*stride)) & ((1 << Rows) - 1)
	h := bits.OnesCount64(colBits) // stones stack bottom-up
	if h >= Rows {
		return 0
	}
	return 1 << uint(c*stride+h)
}

// hasWin reports whether bitboard s contains four in a row.
func hasWin(s uint64) bool {
	for _, d := range [4]uint{1, stride, stride - 1, stride + 1} {
		t := s & (s >> d)
		if t&(t>>(2*d)) != 0 {
			return true
		}
	}
	return false
}

// opponentWon reports whether the player who just moved (the opponent of
// the mover) has four in a row.
func (b Board) opponentWon() bool { return hasWin(b.all &^ b.own) }

// Terminal reports whether the game is over.
func (b Board) Terminal() bool { return b.opponentWon() || b.all == fullMask }

// moveOrder lists columns center-out, Connect Four's natural strong order.
var moveOrder = [Cols]int{3, 2, 4, 1, 5, 0, 6}

// Drop plays a stone in column c for the player to move, returning the new
// position (opponent to move) and whether the move was legal.
func (b Board) Drop(c int) (Board, bool) {
	if c < 0 || c >= Cols || b.Terminal() {
		return b, false
	}
	m := b.colTop(c)
	if m == 0 {
		return b, false
	}
	// The mover's stones become (own | m); from the opponent's perspective
	// "own" is the previous opponent's set, and the mover's set is
	// recoverable as all &^ own.
	return Board{own: b.all &^ b.own, all: b.all | m, ply: b.ply + 1}, true
}

// MustDrop plays a sequence of columns, panicking on an illegal move.
func (b Board) MustDrop(cols ...int) Board {
	for _, c := range cols {
		nb, ok := b.Drop(c)
		if !ok {
			panic(fmt.Sprintf("connect4: illegal drop %d on\n%s", c, b))
		}
		b = nb
	}
	return b
}

// Children implements game.Position: one child per non-full column,
// center-out, or nil when the game is over.
func (b Board) Children() []game.Position {
	var buf [Cols]Board
	return game.Boxed(b.appendChildren(buf[:0]))
}

// AppendChildren implements game.Expander: the children Children returns,
// stored in slab.
func (b Board) AppendChildren(dst []game.Position, slab *game.Slab) []game.Position {
	var buf [Cols]Board
	return game.AppendStored(dst, slab, b.appendChildren(buf[:0]))
}

// appendChildren appends the position's children to out: the move rules
// Children and AppendChildren share.
func (b Board) appendChildren(out []Board) []Board {
	if b.Terminal() {
		return out
	}
	for _, c := range moveOrder {
		if nb, ok := b.Drop(c); ok {
			out = append(out, nb)
		}
	}
	return out
}

// lineMasks holds the 69 possible four-in-a-row masks.
var lineMasks = func() []uint64 {
	var lines []uint64
	add := func(c, r, dc, dr int) {
		var m uint64
		for i := 0; i < 4; i++ {
			cc, rr := c+i*dc, r+i*dr
			if cc < 0 || cc >= Cols || rr < 0 || rr >= Rows {
				return
			}
			m |= 1 << uint(cc*stride+rr)
		}
		lines = append(lines, m)
	}
	for c := 0; c < Cols; c++ {
		for r := 0; r < Rows; r++ {
			add(c, r, 1, 0)  // horizontal
			add(c, r, 0, 1)  // vertical
			add(c, r, 1, 1)  // diagonal up
			add(c, r, 1, -1) // diagonal down
		}
	}
	return lines
}()

// weights scores a line by how many of its cells one player holds, given
// the other player holds none.
var weights = [5]int32{0, 1, 4, 32, 10000}

// Value implements game.Position: a win for the previous player scores
// -10000 (the mover has lost), a draw 0; otherwise the difference of
// line potentials.
func (b Board) Value() game.Value {
	if b.opponentWon() {
		return -10000
	}
	if b.all == fullMask {
		return 0
	}
	opp := b.all &^ b.own
	var score int32
	for _, m := range lineMasks {
		ownIn := bits.OnesCount64(b.own & m)
		oppIn := bits.OnesCount64(opp & m)
		switch {
		case oppIn == 0:
			score += weights[ownIn]
		case ownIn == 0:
			score -= weights[oppIn]
		}
	}
	return game.Value(score)
}

// Ply returns the number of stones played.
func (b Board) Ply() int { return b.ply }

// String renders the board; the player to move's stones are 'o', the
// opponent's 'x'.
func (b Board) String() string {
	var sb strings.Builder
	opp := b.all &^ b.own
	for r := Rows - 1; r >= 0; r-- {
		for c := 0; c < Cols; c++ {
			m := uint64(1) << uint(c*stride+r)
			switch {
			case b.own&m != 0:
				sb.WriteString("o ")
			case opp&m != 0:
				sb.WriteString("x ")
			default:
				sb.WriteString(". ")
			}
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("0 1 2 3 4 5 6\n")
	return sb.String()
}

// Hash returns a 64-bit position hash for transposition tables. The pair
// (own, all) determines the position completely (the side to move is
// implied by the stone count).
func (b Board) Hash() uint64 {
	h := b.own + 0x9E3779B97F4A7C15
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h ^= b.all * 0x94D049BB133111EB
	h = (h ^ (h >> 27)) * 0xBF58476D1CE4E5B9
	return h ^ (h >> 31)
}

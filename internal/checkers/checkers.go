// Package checkers implements English draughts (American checkers), the
// game of Fishburn's tree-splitting experiments that the paper cites when
// comparing pv-splitting results (§4.4: "These results compare favorably
// with Fishburn's results for the tree splitting algorithm using checkers
// game trees"). Experiment E3 uses it as a second, real workload.
//
// Rules implemented: 8x8 board, men move diagonally forward, kings any
// diagonal; captures by jumping are forced, including multi-jumps (a move
// is one complete jump sequence); men promote on the back rank (promotion
// ends the move); a player with no legal move loses. Draws by repetition
// are out of scope (searches are depth-limited).
//
// Board representation: the 32 playable dark squares are numbered 0..31,
// row-major from the bottom-left, rows alternating offsets. Bitboards hold
// men and kings per side.
package checkers

import (
	"fmt"
	"math/bits"
	"strings"

	"ertree/internal/game"
)

// Board is a checkers position from the point of view of the side to move.
type Board struct {
	ownMen, ownKings uint32 // stones of the player to move
	oppMen, oppKings uint32
	// blackToMove records which color "own" is (Black moves first and
	// moves "up" the board in our orientation).
	blackToMove bool
}

var (
	_ game.Position = Board{}
	_ game.Expander = Board{}
)

// square coordinates: square s occupies row r = s/4 (0 = bottom) and column
// c = 2*(s%4) + ((r+1)&1)  (dark squares).
func squareRC(s int) (r, c int) {
	r = s / 4
	c = 2*(s%4) + ((r + 1) & 1)
	return
}

// rcSquare returns the square index for (r, c), or -1 for light squares or
// off-board coordinates.
func rcSquare(r, c int) int {
	if r < 0 || r > 7 || c < 0 || c > 7 {
		return -1
	}
	if (r+c)&1 != 1 {
		return -1 // light square
	}
	return r*4 + c/2
}

// neighbor returns the square one diagonal step from s in direction
// (dr, dc), or -1.
func neighbor(s, dr, dc int) int {
	r, c := squareRC(s)
	return rcSquare(r+dr, c+dc)
}

// Start returns the standard initial position, Black to move. Black men
// occupy squares 0..11 (rows 0-2), White men squares 20..31 (rows 5-7);
// Black moves up (+1 rows).
func Start() Board {
	return Board{
		ownMen:      0x00000FFF,
		oppMen:      0xFFF00000,
		blackToMove: true,
	}
}

// forwardDirs returns the row directions a man of the side to move may
// step: Black (own when blackToMove) moves +1, White moves -1. Because the
// board state is stored from the mover's perspective, we need the mover's
// color.
func (b Board) forwardDir() int {
	if b.blackToMove {
		return 1
	}
	return -1
}

// Move is one complete move: the visited squares (start, then each landing
// square) and the captured squares.
type Move struct {
	Path     []int
	Captures []int
}

func (m Move) String() string {
	var sb strings.Builder
	sep := "-"
	if len(m.Captures) > 0 {
		sep = "x"
	}
	for i, s := range m.Path {
		if i > 0 {
			sb.WriteString(sep)
		}
		fmt.Fprintf(&sb, "%d", s+1) // standard 1-based numbering
	}
	return sb.String()
}

// occupied returns all occupied squares.
func (b Board) occupied() uint32 { return b.ownMen | b.ownKings | b.oppMen | b.oppKings }

// Direction tables shared by every pieceDirs call.
var (
	kingDirs = [][2]int{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}}
	upDirs   = kingDirs[:2]
	downDirs = kingDirs[2:]
)

// pieceDirs returns the (dr, dc) steps available to the piece on square s.
// The result is shared and must not be modified.
func (b Board) pieceDirs(s int) [][2]int {
	bit := uint32(1) << uint(s)
	if b.ownKings&bit != 0 {
		return kingDirs
	}
	if b.forwardDir() == 1 {
		return upDirs
	}
	return downDirs
}

// Bitboard diagonal steps. Even rows (0, 2, 4, 6) hold columns 1, 3, 5, 7
// and odd rows columns 0, 2, 4, 6, so a step's index offset depends on the
// row's parity: 4 from one parity, 3 or 5 from the other. Only the 3-or-5
// step can leave the board sideways, so its edge column is masked off
// first. Steps past the top or bottom row shift out of the word.
const (
	evenRows  uint32 = 0x0F0F0F0F
	oddRows   uint32 = 0xF0F0F0F0
	leftEdge  uint32 = 0x11111111 // index 0 of each row (column 0 on odd rows)
	rightEdge uint32 = 0x88888888 // index 3 of each row (column 7 on even rows)
)

func stepUpLeft(x uint32) uint32    { return (x&evenRows)<<4 | (x&oddRows&^leftEdge)<<3 }
func stepUpRight(x uint32) uint32   { return (x&evenRows&^rightEdge)<<5 | (x&oddRows)<<4 }
func stepDownLeft(x uint32) uint32  { return (x&evenRows)>>4 | (x&oddRows&^leftEdge)>>5 }
func stepDownRight(x uint32) uint32 { return (x&evenRows&^rightEdge)>>3 | (x&oddRows)>>4 }

// hasMove reports whether the side to move has a legal move, without
// generating any: some piece can step to an empty neighbor, or jump an
// adjacent opponent onto an empty square (every capture sequence starts
// with such a jump). Men move and capture forward only, kings both ways.
func (b Board) hasMove() bool {
	empty := ^b.occupied()
	opp := b.oppMen | b.oppKings
	up, down := b.ownKings, b.ownKings
	if b.forwardDir() == 1 {
		up |= b.ownMen
	} else {
		down |= b.ownMen
	}
	steps := stepUpLeft(up) | stepUpRight(up) | stepDownLeft(down) | stepDownRight(down)
	jumps := stepUpLeft(stepUpLeft(up)&opp) | stepUpRight(stepUpRight(up)&opp) |
		stepDownLeft(stepDownLeft(down)&opp) | stepDownRight(stepDownRight(down)&opp)
	return (steps|jumps)&empty != 0
}

// jumpsFrom appends all complete jump sequences starting at square s with
// the piece currently there (captured set so far in caps).
func (b Board) jumpsFrom(s int, visitedCaps uint32, path []int, caps []int, out *[]Move) {
	found := false
	// A piece may not be jumped twice in one move, but captured pieces
	// remain on the board until the move completes, so they still block
	// landing squares.
	opp := (b.oppMen | b.oppKings) &^ visitedCaps
	occ := b.occupied()
	for _, d := range b.pieceDirs(path[0]) {
		over := neighbor(s, d[0], d[1])
		land := neighbor(s, 2*d[0], 2*d[1])
		if over < 0 || land < 0 {
			continue
		}
		overBit := uint32(1) << uint(over)
		landBit := uint32(1) << uint(land)
		if opp&overBit == 0 {
			continue
		}
		if occ&landBit != 0 && land != path[0] {
			continue // landing square occupied (the start square is vacated)
		}
		// A man that reaches the back rank promotes and the move ends.
		promotes := b.isBackRank(land) && b.ownKings&(1<<uint(path[0])) == 0
		found = true
		np := append(append([]int{}, path...), land)
		nc := append(append([]int{}, caps...), over)
		if promotes {
			*out = append(*out, Move{Path: np, Captures: nc})
			continue
		}
		b.jumpsFrom(land, visitedCaps|overBit, np, nc, out)
	}
	if !found && len(caps) > 0 {
		*out = append(*out, Move{Path: append([]int{}, path...), Captures: append([]int{}, caps...)})
	}
}

// isBackRank reports whether square s is the promotion rank for the side to
// move.
func (b Board) isBackRank(s int) bool {
	r := s / 4
	if b.forwardDir() == 1 {
		return r == 7
	}
	return r == 0
}

// Moves returns all legal moves. Captures are forced: if any jump exists,
// only jumps are returned.
func (b Board) Moves() []Move {
	var jumps []Move
	own := b.ownMen | b.ownKings
	for m := own; m != 0; m &= m - 1 {
		s := bits.TrailingZeros32(m)
		b.jumpsFrom(s, 0, []int{s}, nil, &jumps)
	}
	if len(jumps) > 0 {
		return jumps
	}
	var moves []Move
	occ := b.occupied()
	for m := own; m != 0; m &= m - 1 {
		s := bits.TrailingZeros32(m)
		for _, d := range b.pieceDirs(s) {
			to := neighbor(s, d[0], d[1])
			if to < 0 || occ&(1<<uint(to)) != 0 {
				continue
			}
			moves = append(moves, Move{Path: []int{s, to}})
		}
	}
	return moves
}

// Apply plays a move (assumed legal, as produced by Moves) and returns the
// position from the opponent's perspective.
func (b Board) Apply(mv Move) Board {
	var caps uint32
	for _, c := range mv.Captures {
		caps |= 1 << uint(c)
	}
	return b.play(mv.Path[0], mv.Path[len(mv.Path)-1], caps)
}

// play moves the piece on square from to square to, removes the opponent
// pieces on the squares in caps, and returns the position from the
// opponent's perspective. A man that ends on the back rank is promoted.
func (b Board) play(from, to int, caps uint32) Board {
	fromBit := uint32(1) << uint(from)
	toBit := uint32(1) << uint(to)
	ownMen, ownKings := b.ownMen, b.ownKings
	switch {
	case b.ownKings&fromBit != 0:
		ownKings = (ownKings &^ fromBit) | toBit
	case b.isBackRank(to):
		ownMen &^= fromBit
		ownKings |= toBit // promotion
	default:
		ownMen = (ownMen &^ fromBit) | toBit
	}
	return Board{
		ownMen: b.oppMen &^ caps, ownKings: b.oppKings &^ caps,
		oppMen: ownMen, oppKings: ownKings,
		blackToMove: !b.blackToMove,
	}
}

// Children implements game.Position: the positions after each move, in the
// order Moves returns them, or nil when the side to move has lost.
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

// childBuf is how many children are generated on the stack, above the
// move count of ordinary positions; a position with more spills to the
// heap.
const childBuf = 32

// appendChildren appends to out the position after each move, in the order
// Moves returns the moves, straight from the bitboards: the move rules
// Children and AppendChildren share. Captures are forced.
func (b Board) appendChildren(out []Board) []Board {
	own := b.ownMen | b.ownKings
	n := len(out)
	for m := own; m != 0; m &= m - 1 {
		s := bits.TrailingZeros32(m)
		out = b.appendJumps(out, s, s, 0)
	}
	if len(out) > n {
		return out
	}
	occ := b.occupied()
	for m := own; m != 0; m &= m - 1 {
		s := bits.TrailingZeros32(m)
		for _, d := range b.pieceDirs(s) {
			to := neighbor(s, d[0], d[1])
			if to < 0 || occ&(1<<uint(to)) != 0 {
				continue
			}
			out = append(out, b.play(s, to, 0))
		}
	}
	return out
}

// appendJumps appends the position after every complete jump sequence that
// the piece which started on square from continues from square s, having
// captured the pieces in caps: jumpsFrom's walk, carrying the landing square
// and the captured mask instead of a Move.
func (b Board) appendJumps(out []Board, from, s int, caps uint32) []Board {
	found := false
	opp := (b.oppMen | b.oppKings) &^ caps
	occ := b.occupied()
	for _, d := range b.pieceDirs(from) {
		over := neighbor(s, d[0], d[1])
		land := neighbor(s, 2*d[0], 2*d[1])
		if over < 0 || land < 0 {
			continue
		}
		overBit := uint32(1) << uint(over)
		if opp&overBit == 0 {
			continue
		}
		if occ&(1<<uint(land)) != 0 && land != from {
			continue // landing square occupied (the start square is vacated)
		}
		found = true
		if b.isBackRank(land) && b.ownKings&(1<<uint(from)) == 0 {
			out = append(out, b.play(from, land, caps|overBit)) // promotion ends the move
			continue
		}
		out = b.appendJumps(out, from, land, caps|overBit)
	}
	if !found && caps != 0 {
		out = append(out, b.play(from, s, caps))
	}
	return out
}

// Terminal reports whether the side to move has no legal move (loss).
func (b Board) Terminal() bool { return !b.hasMove() }

// Value implements game.Position: a lost position scores -10000; otherwise
// material (men 100, kings 160) plus small positional terms (advancement,
// back-rank guard, center control).
func (b Board) Value() game.Value {
	if !b.hasMove() {
		return -10000
	}
	score := 100*(bits.OnesCount32(b.ownMen)-bits.OnesCount32(b.oppMen)) +
		160*(bits.OnesCount32(b.ownKings)-bits.OnesCount32(b.oppKings))
	score += b.positional(b.ownMen, b.forwardDir()) - b.positional(b.oppMen, -b.forwardDir())
	return game.Value(score)
}

// positional scores men advancement and structure for a side moving in
// direction dir.
func (b Board) positional(men uint32, dir int) int {
	s := 0
	for m := men; m != 0; m &= m - 1 {
		sq := bits.TrailingZeros32(m)
		r, c := squareRC(sq)
		adv := r
		if dir == -1 {
			adv = 7 - r
		}
		s += 2 * adv // advancement toward promotion
		if adv == 0 {
			s += 3 // guarding the back rank
		}
		if c >= 2 && c <= 5 && r >= 2 && r <= 5 {
			s += 2 // center control
		}
	}
	return s
}

// Pieces returns (own men, own kings, opp men, opp kings) counts.
func (b Board) Pieces() (om, ok, pm, pk int) {
	return bits.OnesCount32(b.ownMen), bits.OnesCount32(b.ownKings),
		bits.OnesCount32(b.oppMen), bits.OnesCount32(b.oppKings)
}

// BlackToMove reports whether Black is the side to move.
func (b Board) BlackToMove() bool { return b.blackToMove }

// Hash returns a 64-bit position hash for transposition tables.
func (b Board) Hash() uint64 {
	h := uint64(b.ownMen) | uint64(b.ownKings)<<32
	h2 := uint64(b.oppMen) | uint64(b.oppKings)<<32
	h += 0x9E3779B97F4A7C15
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h ^= h2 * 0x94D049BB133111EB
	if b.blackToMove {
		h ^= 0xD1B54A32D192ED03
	}
	h = (h ^ (h >> 27)) * 0xBF58476D1CE4E5B9
	return h ^ (h >> 31)
}

// String renders the board; the side to move's pieces are 'o'/'O' (men/
// kings), the opponent's 'x'/'X'.
func (b Board) String() string {
	var sb strings.Builder
	side := "BLACK"
	if !b.blackToMove {
		side = "WHITE"
	}
	fmt.Fprintf(&sb, "turn: %s (o moves %+d rows)\n", side, b.forwardDir())
	for r := 7; r >= 0; r-- {
		for c := 0; c < 8; c++ {
			s := rcSquare(r, c)
			if s < 0 {
				sb.WriteString("  ")
				continue
			}
			bit := uint32(1) << uint(s)
			switch {
			case b.ownMen&bit != 0:
				sb.WriteString("o ")
			case b.ownKings&bit != 0:
				sb.WriteString("O ")
			case b.oppMen&bit != 0:
				sb.WriteString("x ")
			case b.oppKings&bit != 0:
				sb.WriteString("X ")
			default:
				sb.WriteString(". ")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

package backend

import (
	"ertree/internal/game"
	"ertree/internal/serial"
	"ertree/internal/tt"
)

func init() { Register("serial", NewSerial) }

// serialBackend is single-threaded scout/PVS over the shared transposition
// table (serial.PVSRoot): the first child of every node is searched with the
// full child window, later children are verified with a null window and
// re-searched only on an in-window fail-high. It is the one-processor
// reference the parallel backends are benchmarked against, and the search
// the lazysmp workers deepen with.
type serialBackend struct {
	cfg Config
}

// NewSerial builds the serial backend. internal/lazysmp's deepening workers
// search through it, so they run the serial backend's node semantics.
func NewSerial(cfg Config) Backend { return &serialBackend{cfg: cfg} }

func (b *serialBackend) Name() string { return "serial" }

func (b *serialBackend) Search(req Request) (Response, error) {
	var (
		stats  game.Stats
		counts tt.Counts
	)
	s := serial.WithTable(serial.Searcher{Order: b.cfg.Order, Stats: &stats}, b.cfg.Table, &counts)
	r, ok := serial.PVSRoot(&s, req.Pos, req.Depth, req.Window, req.RootOrder, req.Cancel)
	tot := Totals{Nodes: stats.Generated.Load(), LeafTasks: stats.Evaluated.Load()}
	tot.addTT(counts)
	resp := Response{
		Value:   r.Value,
		Move:    r.Move,
		Exact:   ok && req.Window.Contains(r.Value),
		Scores:  r.Scores,
		Totals:  tot,
		Workers: 1,
	}
	if !ok {
		return resp, ErrAborted
	}
	return resp, nil
}

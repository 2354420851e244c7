package backend

import "ertree/internal/core"

func init() { Register("er", newER) }

// erBackend is the paper's scheduler behind the seam: one parallel ER search
// (internal/core) per request, with the root expanded so the search reports
// the proving root move and a fail-soft score for each root child. With a
// table attached the search is memory-enhanced at every node below the root
// (core.Options.Table).
type erBackend struct {
	cfg Config
}

func newER(cfg Config) Backend {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	return &erBackend{cfg: cfg}
}

func (b *erBackend) Name() string { return "er" }

// options assembles the core search options of one request. SerialDepth is
// capped below the request depth so the root is always expanded: a root
// searched as one serial task would report no root move.
func (b *erBackend) options(req Request) core.Options {
	opt := core.Options{
		Workers:            b.cfg.Workers,
		SerialDepth:        min(b.cfg.SerialDepth, req.Depth-1),
		Order:              b.cfg.Order,
		ParallelRefutation: b.cfg.ParallelRefutation,
		MultipleENodes:     b.cfg.MultipleENodes,
		EarlyChoice:        b.cfg.EarlyChoice,
		SpecRank:           b.cfg.SpecRank,
		EagerSpec:          b.cfg.EagerSpec,
		ProfileLabels:      b.cfg.ProfileLabels,
		RootWindow:         &req.Window,
		RootOrder:          req.RootOrder,
		Cancel:             req.Cancel,
		Hooks:              req.Hooks,
	}
	if b.cfg.Table != nil {
		// Assign only when non-nil: a nil table wrapped in the Prober
		// interface would read as attached.
		opt.Table = b.cfg.Table
	}
	return opt
}

func (b *erBackend) Search(req Request) (Response, error) {
	if req.Depth < 1 {
		return LeafResponse(req), nil
	}
	res, err := core.Search(req.Pos, req.Depth, b.options(req))
	var tot Totals
	tot.AddResult(res)
	return Response{
		Value:   res.Value,
		Move:    res.Move,
		Exact:   err == nil && res.Exact,
		Scores:  res.Scores,
		Totals:  tot,
		Workers: b.cfg.Workers,
	}, err
}

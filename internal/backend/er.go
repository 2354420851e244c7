package backend

import (
	"ertree/internal/core"
	"ertree/internal/game"
	"ertree/internal/tt"
)

func init() { Register("er", newER) }

// erBackend is the paper's scheduler behind the seam: a fail-soft root loop
// whose child subtrees are searched by parallel ER (internal/core), with the
// shared table probed at the child level before a single core worker starts
// and the fail-soft bound stored after. This is the search the engine's
// sessions ran before the SearchBackend extraction, behavior-identical.
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

// coreTable returns the shared table as the prober handed to core.Search, or
// a nil interface when the backend runs without a table (a typed-nil table
// wrapped in tt.Prober would read as attached).
func (b *erBackend) coreTable() tt.Prober {
	if tt.IsNil(b.cfg.Table) {
		return nil
	}
	return b.cfg.Table
}

// options assembles the per-child core search options; w is the (possibly
// table-narrowed) fail-soft window of that child search.
func (b *erBackend) options(w *game.Window, req Request) core.Options {
	return core.Options{
		Workers:            b.cfg.Workers,
		SerialDepth:        b.cfg.SerialDepth,
		Order:              b.cfg.Order,
		ParallelRefutation: b.cfg.ParallelRefutation,
		MultipleENodes:     b.cfg.MultipleENodes,
		EarlyChoice:        b.cfg.EarlyChoice,
		SpecRank:           b.cfg.SpecRank,
		EagerSpec:          b.cfg.EagerSpec,
		Sharded:            b.cfg.Sharded,
		StealSeed:          b.cfg.StealSeed,
		ProfileLabels:      b.cfg.ProfileLabels,
		RootWindow:         w,
		Table:              b.coreTable(),
		Cancel:             req.Cancel,
		Hooks:              req.Hooks,
	}
}

func (b *erBackend) Search(req Request) (Response, error) {
	kids := req.Pos.Children()
	if req.Depth < 1 || len(kids) == 0 {
		return LeafResponse(req), nil
	}
	var tot Totals
	policy := ttPolicy{table: b.cfg.Table}
	search := func(child game.Position, depth int, w game.Window) (game.Value, error) {
		if depth == 0 {
			tot.Nodes++
			tot.LeafTasks++
			return child.Value(), nil
		}
		v, done, key, hashable := policy.probeChild(child, depth, &w, &tot)
		if done {
			return v, nil
		}
		res, err := core.Search(child, depth, b.options(&w, req))
		tot.AddResult(res)
		if err != nil {
			return 0, err
		}
		if hashable {
			policy.storeChild(key, depth, res.Value, w, &tot)
		}
		return res.Value, nil
	}
	r, err := RootScout(kids, req.Depth, req.Window, req.RootOrder, search)
	return Response{
		Value:   r.Value,
		Move:    r.Move,
		Exact:   err == nil && req.Window.Contains(r.Value),
		Scores:  r.Scores,
		Totals:  tot,
		Workers: b.cfg.Workers,
	}, err
}

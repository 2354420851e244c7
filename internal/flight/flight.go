// Package flight turns a search's flight-recorder log (internal/core
// events) into a speculation-waste profile: where the busy time went, how
// much of it was speculative, and how much of the speculative share was
// wasted — the per-search answer to the paper's §6 question of how far
// parallel ER strays from the work a serial search would have done.
//
// Attribution rules (see DESIGN.md "Per-search introspection"):
//
//   - Every executed task (EvTask) carries its busy duration and whether its
//     node was speculative-born, so the task log partitions total busy time
//     exactly.
//   - A node is *wasted* when its subtree result was observably thrown away:
//     the node was discarded dead at pop time (TaskDrop), its completed
//     result was discarded after the heavy work or at combine time
//     (EvDiscard), or any ancestor was. Ancestry comes from the spawn log
//     and waste propagates downward: work under a discarded node could not
//     have contributed to the root.
//   - Buckets: wasted-speculative is speculative-born work on wasted nodes
//     (plus speculative dead-node drops); useful-speculative is the
//     remaining speculative work; useful-primary is everything else. Primary
//     work the scheduler discarded is rare (it requires a cutoff racing the
//     queue) and stays in the primary bucket, so the three buckets always
//     sum to total recorded busy time.
//
// When the per-worker rings wrapped (EventDrops > 0) the log is a suffix of
// the search and the buckets cover only what survived; Report.Busy still
// totals the full search from the aggregate counters so the gap is visible.
package flight

import (
	"sort"
	"time"

	"ertree/internal/core"
	"ertree/internal/gtree"
)

// Options configures report construction.
type Options struct {
	// Label names the search in the report (request id, workload name).
	Label string
	// Workers is the searching worker count, for the report header.
	Workers int
	// Root, when the search ran over an explicit gtree.Node position with
	// natural move order (no Orderer; e-node children are never statically
	// sorted), enables minimal-tree classification: spawn events map each
	// search node back to its gtree node by move index, and the visited set
	// is compared against the Knuth–Moore critical tree. Leave nil for real
	// games, where no explicit tree exists.
	Root *gtree.Node
}

// Bucket totals one waste-attribution class.
type Bucket struct {
	Tasks int64         `json:"tasks"`
	Time  time.Duration `json:"time_ns"`
}

func (b *Bucket) add(d time.Duration) { b.Tasks++; b.Time += d }

// PlyProfile is the bucket split at one tree depth.
type PlyProfile struct {
	Ply           int    `json:"ply"`
	UsefulPrimary Bucket `json:"useful_primary"`
	UsefulSpec    Bucket `json:"useful_spec"`
	WastedSpec    Bucket `json:"wasted_spec"`
}

// MinimalReport compares the visited parallel tree against the Knuth–Moore
// minimal tree (gtree workloads only).
type MinimalReport struct {
	TreeNodes     int `json:"tree_nodes"`     // nodes in the full game tree
	MinimalNodes  int `json:"minimal_nodes"`  // critical nodes (types 1-3)
	MinimalLeaves int `json:"minimal_leaves"` // critical terminal nodes
	VisitedNodes  int `json:"visited_nodes"`  // distinct nodes the search materialized
	// VisitedByType counts visited nodes per critical type; index 0 is
	// nodes outside the minimal tree — the search overhead of §6.
	VisitedByType [4]int `json:"visited_by_type"`
	// Overhead is VisitedNodes/MinimalNodes - 1: zero for a perfectly
	// ordered serial alpha-beta, growing with speculative excess.
	Overhead float64 `json:"overhead"`
	// Unmapped counts spawn events whose parent could not be placed in the
	// game tree (possible only when ring drops cut the spawn chain).
	Unmapped int `json:"unmapped,omitempty"`
}

// Report is a search's speculation-waste profile.
type Report struct {
	Label   string `json:"label,omitempty"`
	Workers int    `json:"workers"`

	// Busy and Tasks total the search from the aggregate per-kind counters,
	// which never drop; the buckets below cover the recorded events.
	Busy  time.Duration    `json:"busy_ns"`
	Tasks int64            `json:"tasks"`
	Kinds map[string]int64 `json:"tasks_by_kind"`

	UsefulPrimary Bucket       `json:"useful_primary"`
	UsefulSpec    Bucket       `json:"useful_spec"`
	WastedSpec    Bucket       `json:"wasted_spec"`
	Plies         []PlyProfile `json:"plies"`

	Events     int   `json:"events"`
	EventDrops int64 `json:"event_drops"`

	Spawns         int64 `json:"spawns"`
	Promotions     int64 `json:"promotions"`
	SpecPromotions int64 `json:"spec_promotions"`
	Refutations    int64 `json:"refutations"`
	Combines       int64 `json:"combines"`
	Aborts         int64 `json:"aborts"`
	Discards       int64 `json:"discards"`
	TTCutoffs      int64 `json:"tt_cutoffs"`
	HeapPeak       int   `json:"heap_peak"`

	Minimal *MinimalReport `json:"minimal,omitempty"`
}

// WastedRatio returns the wasted-speculative share of recorded busy time.
func (r *Report) WastedRatio() float64 {
	total := r.UsefulPrimary.Time + r.UsefulSpec.Time + r.WastedSpec.Time
	if total == 0 {
		return 0
	}
	return float64(r.WastedSpec.Time) / float64(total)
}

// Build reconstructs a search's profile from the worker telemetry shards
// delivered by core.Hooks.OnWorkerDone. The shards must come from one search
// (or one deepening session sharing an epoch) with Hooks.Events armed.
func Build(tels []core.WorkerTelemetry, opts Options) *Report {
	r := &Report{
		Label:   opts.Label,
		Workers: opts.Workers,
		Kinds:   make(map[string]int64, int(core.NumTaskKinds)),
	}
	if r.Workers == 0 {
		r.Workers = len(tels)
	}

	var events []core.Event
	for i := range tels {
		wt := &tels[i]
		r.Busy += wt.Busy()
		r.Tasks += wt.Tasks()
		for k := core.TaskKind(0); k < core.NumTaskKinds; k++ {
			if c := wt.TaskCounts[k]; c > 0 {
				r.Kinds[k.String()] += c
			}
		}
		r.Events += len(wt.Events)
		r.EventDrops += wt.EventDrops
		events = append(events, wt.Events...)
		for _, hs := range wt.HeapSamples {
			if occ := hs.Primary + hs.Spec; occ > r.HeapPeak {
				r.HeapPeak = occ
			}
		}
	}

	// First pass: ancestry and the discarded set.
	parent := make(map[uint64]uint64)
	discarded := make(map[uint64]bool)
	for _, e := range events {
		switch e.Kind {
		case core.EvSpawn:
			parent[e.Seq] = e.Par
			r.Spawns++
		case core.EvDiscard:
			discarded[e.Seq] = true
			r.Discards++
		case core.EvTask:
			if e.Task == core.TaskDrop {
				discarded[e.Seq] = true
			}
		case core.EvPromote:
			r.Promotions++
			if e.Spec {
				r.SpecPromotions++
			}
		case core.EvRefute:
			r.Refutations++
		case core.EvCombine:
			r.Combines++
		case core.EvAbort:
			r.Aborts++
		case core.EvTTCutoff:
			r.TTCutoffs++
		}
	}

	// wasted memoizes downward waste propagation: a node is wasted when it
	// or any known ancestor was discarded.
	wasted := make(map[uint64]bool, len(discarded))
	var isWasted func(seq uint64) bool
	isWasted = func(seq uint64) bool {
		if w, ok := wasted[seq]; ok {
			return w
		}
		w := discarded[seq]
		if !w {
			if par, ok := parent[seq]; ok {
				w = isWasted(par)
			}
		}
		wasted[seq] = w
		return w
	}

	// Second pass: bucket every executed task.
	plies := make(map[int]*PlyProfile)
	plyOf := func(ply int) *PlyProfile {
		p, ok := plies[ply]
		if !ok {
			p = &PlyProfile{Ply: ply}
			plies[ply] = p
		}
		return p
	}
	for _, e := range events {
		if e.Kind != core.EvTask {
			continue
		}
		p := plyOf(int(e.Ply))
		switch {
		case e.Spec && isWasted(e.Seq):
			r.WastedSpec.add(e.Dur)
			p.WastedSpec.add(e.Dur)
		case e.Spec:
			r.UsefulSpec.add(e.Dur)
			p.UsefulSpec.add(e.Dur)
		default:
			r.UsefulPrimary.add(e.Dur)
			p.UsefulPrimary.add(e.Dur)
		}
	}
	for _, p := range plies {
		r.Plies = append(r.Plies, *p)
	}
	sort.Slice(r.Plies, func(i, j int) bool { return r.Plies[i].Ply < r.Plies[j].Ply })

	if opts.Root != nil {
		r.Minimal = minimalReport(opts.Root, events)
	}
	return r
}

// minimalReport maps the spawn log back onto the explicit game tree and
// classifies the visited set against the Knuth–Moore critical tree. Spawn
// events carry the child's move index into the parent's move list, which for
// natural move order is the index into the parent's Kids — e-node children
// are never statically reordered and the default orderer is the identity.
func minimalReport(root *gtree.Node, events []core.Event) *MinimalReport {
	class := gtree.ClassifyDeep(root)
	m := &MinimalReport{
		TreeNodes:     root.Size(),
		MinimalNodes:  class.CriticalNodes(),
		MinimalLeaves: class.CriticalLeaves(),
	}

	// Spawns from different workers arrive unordered; resolve them with a
	// fixpoint pass so a child is placed as soon as its parent is (bounded
	// by the tree height in rounds).
	placed := map[uint64]*gtree.Node{core.RootSeq: root}
	pending := make([]core.Event, 0, len(events))
	for _, e := range events {
		if e.Kind == core.EvSpawn {
			pending = append(pending, e)
		}
	}
	for len(pending) > 0 {
		progress := false
		rest := pending[:0]
		for _, e := range pending {
			g, ok := placed[e.Par]
			if !ok {
				rest = append(rest, e)
				continue
			}
			if int(e.Arg) < len(g.Kids) {
				placed[e.Seq] = g.Kids[e.Arg]
			}
			progress = true
		}
		pending = rest
		if !progress {
			break
		}
	}
	m.Unmapped = len(pending)

	seen := make(map[*gtree.Node]bool, len(placed))
	for _, g := range placed {
		if seen[g] {
			continue // transpositions cannot occur in a tree; defensive
		}
		seen[g] = true
		m.VisitedNodes++
		t := class[g] // NonCritical (0) when outside the minimal tree
		m.VisitedByType[t]++
	}
	if m.MinimalNodes > 0 {
		m.Overhead = float64(m.VisitedNodes)/float64(m.MinimalNodes) - 1
	}
	return m
}

package flight

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// WriteText renders the report for terminals (cmd/ertree -flight).
func (r *Report) WriteText(w io.Writer) {
	if r.Label != "" {
		fmt.Fprintf(w, "flight report: %s\n", r.Label)
	} else {
		fmt.Fprintln(w, "flight report")
	}
	fmt.Fprintf(w, "  workers %d   tasks %d   busy %v   events %d (dropped %d)\n",
		r.Workers, r.Tasks, r.Busy.Round(time.Microsecond), r.Events, r.EventDrops)

	kinds := make([]string, 0, len(r.Kinds))
	for k := range r.Kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprint(w, "  by kind:")
	for _, k := range kinds {
		fmt.Fprintf(w, " %s=%d", k, r.Kinds[k])
	}
	fmt.Fprintln(w)

	recorded := r.UsefulPrimary.Time + r.UsefulSpec.Time + r.WastedSpec.Time
	pct := func(b Bucket) float64 {
		if recorded == 0 {
			return 0
		}
		return 100 * float64(b.Time) / float64(recorded)
	}
	fmt.Fprintf(w, "  busy split: primary %v (%.1f%%)   spec useful %v (%.1f%%)   spec wasted %v (%.1f%%)\n",
		r.UsefulPrimary.Time.Round(time.Microsecond), pct(r.UsefulPrimary),
		r.UsefulSpec.Time.Round(time.Microsecond), pct(r.UsefulSpec),
		r.WastedSpec.Time.Round(time.Microsecond), pct(r.WastedSpec))
	fmt.Fprintf(w, "  schedule: spawns %d   promotions %d (%d speculative)   refutations %d   aborts %d   discards %d\n",
		r.Spawns, r.Promotions, r.SpecPromotions, r.Refutations, r.Aborts, r.Discards)
	fmt.Fprintf(w, "  tt cutoffs %d   heap peak %d\n", r.TTCutoffs, r.HeapPeak)

	if len(r.Plies) > 0 {
		fmt.Fprintln(w, "  per ply (tasks: primary / spec-useful / spec-wasted):")
		for _, p := range r.Plies {
			fmt.Fprintf(w, "    ply %2d: %6d / %6d / %6d\n",
				p.Ply, p.UsefulPrimary.Tasks, p.UsefulSpec.Tasks, p.WastedSpec.Tasks)
		}
	}

	if m := r.Minimal; m != nil {
		fmt.Fprintf(w, "  minimal tree: %d of %d tree nodes critical (%d critical leaves)\n",
			m.MinimalNodes, m.TreeNodes, m.MinimalLeaves)
		fmt.Fprintf(w, "  visited %d nodes: type1 %d, type2 %d, type3 %d, off-minimal %d   overhead %.2fx\n",
			m.VisitedNodes, m.VisitedByType[1], m.VisitedByType[2], m.VisitedByType[3],
			m.VisitedByType[0], m.Overhead)
		if m.Unmapped > 0 {
			fmt.Fprintf(w, "  (%d spawns unmapped: ring drops cut the spawn chain)\n", m.Unmapped)
		}
	}
}

package core

import (
	"context"
	"runtime/pprof"
	"time"
)

// Search flight recorder.
//
// The paper's §6 discussion turns on *which* work was wasted — speculative
// subtrees started by the Table 2 early-choice rules and then orphaned by a
// cutoff — but aggregate counters cannot answer that for a single search.
// The flight recorder captures a bounded per-worker event log: every task
// execution, every Table 1 child spawn, every Table 2 e-child promotion and
// refutation start, every combine step, every discarded subtree result and
// every transposition-table cutoff. internal/flight replays the log after the
// search to reconstruct the tree and attribute busy time to useful-primary /
// useful-speculative / wasted-speculative buckets.
//
// The recorder follows the hooks discipline (hooks.go): each worker appends
// to its own fixed-capacity ring, no shared structure is touched during the
// search, and the ring is drained into the worker's WorkerTelemetry at exit.
// When the ring wraps, the oldest events are overwritten and EventDrops
// counts what was lost — the log is bounded by Hooks.Events per worker no
// matter how large the search. Disabled (Hooks nil or Hooks.Events == 0),
// every record call is a single nil check and zero allocations, pinned by
// TestHooksDisabledInstrumentationAllocFree.

// RootSeq is the node sequence number of the search root: newNode numbers
// nodes from 1 and the root is always created first. Event consumers
// (internal/flight) anchor tree reconstruction at this id.
const RootSeq uint64 = 1

// EventKind classifies one flight-recorder event.
type EventKind uint8

const (
	// EvTask is one executed task: Seq is the node, Task/Spec/Ply classify
	// it, At..At+Dur is the busy interval.
	EvTask EventKind = iota
	// EvSpawn is a Table 1 child generation: Seq is the child, Par the
	// parent, Arg the move index into the parent's ordered move list.
	EvSpawn
	// EvPromote is a Table 2 e-child selection: Seq is the promoted child,
	// Par the e-node; Spec marks promotions driven by the speculative queue.
	EvPromote
	// EvRefute marks the start of refutation at e-node Seq (Table 2 row 3).
	EvRefute
	// EvCombine is one combine step: child Seq's value (negated, in Arg)
	// reached parent Par.
	EvCombine
	// EvAbort is a beta cutoff that abandoned in-flight work: node Seq was
	// cut off with Arg children still active; their subtrees are wasted.
	EvAbort
	// EvDiscard is a subtree result thrown away: node Seq died (an ancestor
	// resolved) between task start and completion, or its combine arrived
	// after the parent was already done.
	EvDiscard
	// EvTTCutoff is a shared-tree node the transposition table settled
	// before it was expanded.
	EvTTCutoff
	// NumEventKinds bounds the EventKind values.
	NumEventKinds
)

func (k EventKind) String() string {
	switch k {
	case EvTask:
		return "task"
	case EvSpawn:
		return "spawn"
	case EvPromote:
		return "promote"
	case EvRefute:
		return "refute"
	case EvCombine:
		return "combine"
	case EvAbort:
		return "abort"
	case EvDiscard:
		return "discard"
	case EvTTCutoff:
		return "tt-cutoff"
	default:
		return "unknown"
	}
}

// Event is one flight-recorder record. Seq/Par are node sequence numbers
// (RootSeq for the root); field meaning per kind is documented on the
// EventKind constants.
type Event struct {
	At   time.Duration // offset from the hooks epoch
	Dur  time.Duration // busy duration (EvTask only)
	Seq  uint64        // subject node
	Par  uint64        // parent / e-node, kind-dependent (0 when unused)
	Arg  int64         // kind-specific argument (move index, value, active kids)
	Kind EventKind
	Task TaskKind // task classification (EvTask only)
	Spec bool     // speculative-born subject / speculative promotion
	Ply  int32    // subject's distance from the root
}

// eventRing is a worker-private bounded event log with keep-last semantics:
// once capacity is reached the oldest event is overwritten, so the tail of
// the search — where cutoffs resolve and waste becomes attributable — always
// survives. No locking: exactly one worker writes, and the ring is drained
// only after that worker exits.
type eventRing struct {
	buf []Event
	n   uint64 // total events recorded; slot for event i is i % cap(buf)
}

func (r *eventRing) add(e Event) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.n%uint64(cap(r.buf))] = e
	}
	r.n++
}

// drain returns the recorded events oldest-first plus the number dropped to
// the ring bound. The returned slice aliases the ring's buffer when it never
// wrapped and is freshly rotated otherwise.
func (r *eventRing) drain() (events []Event, drops int64) {
	c := uint64(cap(r.buf))
	if c == 0 || r.n <= c {
		return r.buf, 0
	}
	head := int(r.n % c)
	out := make([]Event, 0, c)
	out = append(out, r.buf[head:]...)
	out = append(out, r.buf[:head]...)
	return out, int64(r.n - c)
}

// event records e in the worker's ring, stamping the time. The disabled path
// is one nil check; the struct argument is built on the caller's stack, so
// the call allocates nothing either way.
func (w *wctx) event(e Event) {
	r := w.rec
	if r == nil {
		return
	}
	e.At = time.Since(w.epoch)
	r.add(e)
}

// Goroutine profile labels.
//
// With Options.ProfileLabels set, every task executes under pprof labels
// task_kind (the Table 1 / §6 dispatch class) and spec (whether the node was
// speculative-born), so CPU, mutex, and block profiles segment by the
// paper's work taxonomy: `go tool pprof -tagfocus task_kind=serial` isolates
// the serial frontier, `-tagfocus spec=true` the speculative share. The
// label contexts are precomputed per (kind, spec) pair; arming a task costs
// two SetGoroutineLabels calls and zero allocations.
var taskLabelCtx [NumTaskKinds][2]context.Context

func init() {
	for k := TaskKind(0); k < NumTaskKinds; k++ {
		taskLabelCtx[k][0] = pprof.WithLabels(context.Background(),
			pprof.Labels("task_kind", k.String(), "spec", "false"))
		taskLabelCtx[k][1] = pprof.WithLabels(context.Background(),
			pprof.Labels("task_kind", k.String(), "spec", "true"))
	}
}

// classifyTask predicts the task kind runTask will execute for a popped
// node, mirroring its dispatch order. It is a pop-time classification: a
// node that turns out terminal above the horizon is labeled expand even
// though runTask completes it as a leaf — the label describes the scheduled
// work class, not the retrospective one. Lock held.
func (s *state) classifyTask(n *node, fromSpec bool) (TaskKind, bool) {
	if fromSpec {
		return TaskSpec, true
	}
	if !n.alive() {
		return TaskDrop, n.specBorn
	}
	if win := n.window(); win.Empty() || n.value >= win.Beta {
		return TaskCutoff, n.specBorn
	}
	switch {
	case n.depth == 0:
		return TaskLeaf, n.specBorn
	case n.depth <= s.opt.SerialDepth && n.typ == eNode:
		return TaskSerial, n.specBorn
	case n.examine:
		return TaskExamine, n.specBorn
	default:
		return TaskExpand, n.specBorn
	}
}

// setTaskLabels applies the precomputed label context for the popped task.
func setTaskLabels(k TaskKind, spec bool) {
	i := 0
	if spec {
		i = 1
	}
	pprof.SetGoroutineLabels(taskLabelCtx[k][i])
}

// clearTaskLabels restores the unlabeled goroutine state between tasks.
func clearTaskLabels() {
	pprof.SetGoroutineLabels(context.Background())
}

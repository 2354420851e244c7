package core

import "time"

// Real-runtime observation hooks.
//
// The paper's whole argument is about where parallel time goes — primary vs.
// speculative work, heap traffic, starvation (§3, §6) — and the simulator
// reports that decomposition exactly. Hooks give the goroutine runtime the
// same visibility for wall-clock runs: per-worker busy spans tagged by task
// kind, the speculative-vs-primary work split, and problem-heap size samples.
//
// The design constraint is the hot path: workers already avoid the engine
// lock for all accounting by writing to private wctx shards merged at exit
// (state.go). Hooks follow the same discipline — every event is appended to
// the observing worker's own WorkerTelemetry, no shared structure is touched
// until the worker exits and delivers its shard to OnWorkerDone. With Hooks
// nil the instrumentation is a single pointer test per task and zero
// allocations (see TestHooksDisabledInstrumentationAllocFree).
//
// Simulate ignores Hooks: the simulated runtime has its own deterministic
// busy-interval tracing (Options.Trace) and must stay bit-stable.

// TaskKind classifies the work a worker performs in one pop-loop round.
type TaskKind uint8

const (
	// TaskLeaf is a frontier or terminal static evaluation.
	TaskLeaf TaskKind = iota
	// TaskSerial is a serial-ER subtree search at the serial frontier.
	TaskSerial
	// TaskExamine is one refutation step searched as a serial unit.
	TaskExamine
	// TaskExpand is child generation plus the Table 1 scheduling actions.
	TaskExpand
	// TaskSpec is a speculative-queue action (selecting an extra e-child).
	TaskSpec
	// TaskCutoff is a node cut off at pop time (window closed while queued).
	TaskCutoff
	// TaskDrop is a dead node discarded at pop time.
	TaskDrop
	// NumTaskKinds bounds the TaskKind values for array-indexed accounting.
	NumTaskKinds
)

func (k TaskKind) String() string {
	switch k {
	case TaskLeaf:
		return "leaf"
	case TaskSerial:
		return "serial"
	case TaskExamine:
		return "examine"
	case TaskExpand:
		return "expand"
	case TaskSpec:
		return "spec-select"
	case TaskCutoff:
		return "cutoff"
	case TaskDrop:
		return "drop"
	default:
		return "unknown"
	}
}

// Span is one task executed by a worker, as offsets from the Hooks epoch.
type Span struct {
	Kind TaskKind
	// Spec marks work on a node born speculative: the node (or an ancestor)
	// was selected as an additional e-child from the speculative queue, so a
	// serial search would not necessarily have visited it. The split is the
	// wall-clock analogue of the paper's primary/speculative accounting.
	Spec bool
	// Ply is the node's distance from the search root.
	Ply        int
	Start, End time.Duration
}

// HeapSample is a problem-heap size observation taken at pop time.
type HeapSample struct {
	At      time.Duration
	Primary int // nodes queued on the primary queue
	Spec    int // e-nodes queued on the speculative queue
}

// WorkerTelemetry is one worker's accumulated observations, delivered to
// Hooks.OnWorkerDone when the worker exits.
type WorkerTelemetry struct {
	Worker     int
	TaskCounts [NumTaskKinds]int64
	TaskTime   [NumTaskKinds]time.Duration
	// SpecTasks/SpecTime total the tasks (and busy time) spent on
	// speculative-born nodes; the remainder of the TaskCounts/TaskTime
	// totals is primary work.
	SpecTasks int64
	SpecTime  time.Duration
	// Spans are the individual task spans, recorded only when Hooks.Spans
	// is set (they are the expensive part: one append per task).
	Spans []Span
	// HeapSamples are recorded every Hooks.HeapEvery pops.
	HeapSamples []HeapSample
	// Events is the worker's flight-recorder log (events.go), drained from
	// the bounded ring at worker exit; empty unless Hooks.Events > 0.
	// EventDrops counts events overwritten when the ring wrapped.
	Events     []Event
	EventDrops int64
}

// Busy returns the worker's total instrumented busy time.
func (wt *WorkerTelemetry) Busy() time.Duration {
	var d time.Duration
	for _, t := range wt.TaskTime {
		d += t
	}
	return d
}

// Tasks returns the worker's total task count.
func (wt *WorkerTelemetry) Tasks() int64 {
	var n int64
	for _, c := range wt.TaskCounts {
		n += c
	}
	return n
}

// Merge folds o into wt (concatenating spans and samples), for aggregating
// one logical worker's telemetry across successive searches that share an
// epoch — the engine's deepening iterations reuse worker ids.
func (wt *WorkerTelemetry) Merge(o WorkerTelemetry) {
	for k := range wt.TaskCounts {
		wt.TaskCounts[k] += o.TaskCounts[k]
		wt.TaskTime[k] += o.TaskTime[k]
	}
	wt.SpecTasks += o.SpecTasks
	wt.SpecTime += o.SpecTime
	wt.Spans = append(wt.Spans, o.Spans...)
	wt.HeapSamples = append(wt.HeapSamples, o.HeapSamples...)
	wt.Events = append(wt.Events, o.Events...)
	wt.EventDrops += o.EventDrops
}

// Hooks configures optional observation of a real-runtime Search. A nil
// *Hooks (the default) costs one pointer test per task and allocates
// nothing. All fields are read-only during the search.
type Hooks struct {
	// Epoch anchors span and sample timestamps. Zero means "the start of
	// this Search"; callers aggregating several searches into one timeline
	// (e.g. a deepening session) set a common epoch.
	Epoch time.Time
	// Spans records one Span per task, the raw material for trace timelines.
	// Off, only the per-kind totals are kept.
	Spans bool
	// HeapEvery samples the problem-heap sizes every N pops per worker
	// (0 disables sampling).
	HeapEvery int
	// Events arms the flight recorder (events.go) with a per-worker ring of
	// this capacity; 0 disables it. The ring keeps the newest events and
	// counts overwrites in WorkerTelemetry.EventDrops, so memory stays
	// bounded at Events records per worker regardless of search size.
	Events int
	// OnWorkerDone receives each worker's telemetry when the worker exits.
	// It is called once per worker, concurrently from worker goroutines, so
	// the sink must be safe for concurrent use.
	OnWorkerDone func(WorkerTelemetry)
}

// attachHooks arms the worker context's telemetry shard. Called only when
// hooks are non-nil, before the worker starts.
func (w *wctx) attachHooks(id int, h *Hooks, epoch time.Time) {
	w.hooks = h
	w.epoch = epoch
	w.tel = &WorkerTelemetry{Worker: id}
	if h.Events > 0 {
		w.rec = &eventRing{buf: make([]Event, 0, h.Events)}
	}
}

// taskStart stamps the beginning of a task; the zero time when telemetry is
// disabled (the nil-hook fast path: no clock read, no allocation).
func (w *wctx) taskStart() time.Time {
	if w.tel == nil {
		return time.Time{}
	}
	return time.Now()
}

// taskEnd records one finished task in the worker's shard; n is the task's
// node (its seq feeds the flight recorder when armed).
func (w *wctx) taskEnd(start time.Time, k TaskKind, spec bool, n *node) {
	t := w.tel
	if t == nil {
		return
	}
	end := time.Now()
	d := end.Sub(start)
	t.TaskCounts[k]++
	t.TaskTime[k] += d
	if spec {
		t.SpecTasks++
		t.SpecTime += d
	}
	if w.hooks.Spans {
		t.Spans = append(t.Spans, Span{
			Kind:  k,
			Spec:  spec,
			Ply:   n.ply,
			Start: start.Sub(w.epoch),
			End:   end.Sub(w.epoch),
		})
	}
	if w.rec != nil {
		w.rec.add(Event{
			At:   start.Sub(w.epoch),
			Dur:  d,
			Seq:  n.seq,
			Kind: EvTask,
			Task: k,
			Spec: spec,
			Ply:  int32(n.ply),
		})
	}
}

// sampleHeap records the heap sizes every HeapEvery pops. Called with the
// engine lock held (sizes must be read under it), so it does only two loads
// and, on the sampled pop, one append into the private shard.
func (w *wctx) sampleHeap(primary, spec int) {
	t := w.tel
	if t == nil || w.hooks.HeapEvery <= 0 {
		return
	}
	w.pops++
	if w.pops%w.hooks.HeapEvery != 0 {
		return
	}
	t.HeapSamples = append(t.HeapSamples, HeapSample{
		At:      time.Since(w.epoch),
		Primary: primary,
		Spec:    spec,
	})
}

// flush delivers the worker's telemetry shard to the sink at worker exit,
// draining the flight-recorder ring into it first.
func (w *wctx) flush() {
	if w.tel == nil {
		return
	}
	if w.rec != nil {
		w.tel.Events, w.tel.EventDrops = w.rec.drain()
	}
	if w.hooks.OnWorkerDone != nil {
		w.hooks.OnWorkerDone(*w.tel)
	}
}

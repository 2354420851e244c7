package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"ertree/internal/backend"
	"ertree/internal/obs"
	"ertree/internal/randtree"
	"ertree/internal/telemetry"
	"ertree/internal/tt"
)

// TestTelemetryRecordsSessions: an engine wired to a Telemetry exposes the
// session, latency, and core-search families with the engine's game label
// after a completed analysis.
func TestTelemetryRecordsSessions(t *testing.T) {
	reg := telemetry.NewRegistry()
	tel := NewTelemetry(reg)
	// Pinned to the er backend: the asserted families (serial tasks, heap
	// ops) only exist on the ER scheduler, so this test must not float with
	// ERTREE_BACKEND.
	e := New(Config{
		Name: "randtree", Workers: 2, SerialDepth: 2, TableBits: 12,
		Backend: "er", Telemetry: tel,
	})
	tr := &randtree.Tree{Seed: 7, Degree: 4, Depth: 6, ValueRange: 1000}
	if _, err := e.Analyze(context.Background(), tr.Root(), 5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`engine_sessions_total{game="randtree",outcome="completed"} 1`,
		`engine_session_duration_seconds_count{game="randtree",outcome="completed"} 1`,
		`engine_session_depth_count{game="randtree"} 1`,
		`core_tasks_total{game="randtree",kind="serial"}`,
		`core_tt_ops_total{game="randtree",op="probe"}`,
		`core_tt_fill_slots{game="randtree"}`,
		`core_tt_hit_rate{game="randtree"}`,
		`core_tt_generation{game="randtree"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	st := e.Stats()
	if st.SerialTasks == 0 || st.HeapOps == 0 {
		t.Fatalf("core aggregates not folded into Stats: %+v", st)
	}
	if st.TTProbes == 0 || st.TTStores == 0 {
		t.Fatalf("tt aggregates not folded into Stats: %+v", st)
	}
}

// TestTelemetryNilIsSafe: a nil *Telemetry disables recording without
// changing engine behavior.
func TestTelemetryNilIsSafe(t *testing.T) {
	e := New(Config{Workers: 1})
	tr := &randtree.Tree{Seed: 3, Degree: 3, Depth: 5, ValueRange: 100}
	if _, err := e.Analyze(context.Background(), tr.Root(), 4); err != nil {
		t.Fatal(err)
	}
	var tel *Telemetry
	tel.recordSession("x", outcomeCompleted, time.Second, 3, 0, 10)
	tel.recordRejection("x")
	tel.recordCore("x", backend.Totals{SerialTasks: 1})
	tel.recordTable("x", tt.NewLockFree(8), 0.5)
}

// TestAnalyzeTraceCollectsWorkerSpans: a traced session returns merged
// per-worker telemetry that WriteWorkerTrace renders as a valid Chrome
// trace_event JSON array with one named track per worker.
func TestAnalyzeTraceCollectsWorkerSpans(t *testing.T) {
	// Worker spans come from core hooks, which only the er backend arms.
	e := New(Config{Name: "randtree", Workers: 3, SerialDepth: 2, Backend: "er"})
	tr := &randtree.Tree{Seed: 17, Degree: 4, Depth: 6, ValueRange: 1000}
	an, err := e.AnalyzeTrace(context.Background(), tr.Root(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Trace) == 0 {
		t.Fatal("traced analysis returned no worker telemetry")
	}
	if len(an.Trace) > 3 {
		t.Fatalf("%d worker tracks for 3 workers", len(an.Trace))
	}
	var spans int
	for i, wt := range an.Trace {
		if i > 0 && an.Trace[i-1].Worker >= wt.Worker {
			t.Fatalf("tracks not ordered by worker id: %d then %d", an.Trace[i-1].Worker, wt.Worker)
		}
		spans += len(wt.Spans)
		// Deepening iterations share the session epoch, so merged spans must
		// stay on one axis: all offsets non-negative and within the session.
		for _, sp := range wt.Spans {
			if sp.Start < 0 || sp.End < sp.Start {
				t.Fatalf("worker %d span off the session axis: %+v", wt.Worker, sp)
			}
		}
	}
	if spans == 0 {
		t.Fatal("no spans collected across the session")
	}

	var buf bytes.Buffer
	if err := WriteWorkerTrace(&buf, "engine test", an.Trace); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace output is not a JSON array: %v", err)
	}
	names := 0
	for _, ev := range events {
		if ev["ph"] == "M" && ev["name"] == "thread_name" {
			names++
		}
	}
	if names != len(an.Trace) {
		t.Fatalf("%d thread_name records for %d tracks", names, len(an.Trace))
	}

	// The untraced path must not populate Trace.
	an2, err := e.Analyze(context.Background(), tr.Root(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if an2.Trace != nil {
		t.Fatal("Analyze populated Trace without tracing enabled")
	}
}

// TestStatsConcurrentSessions races many sessions — including rejected
// admissions — against a Stats reader and an obs sampler, and checks the
// final counters balance and every view of them agrees: Stats, an AddSample
// reading and the registry families. Run under -race this also proves the
// counters are data-race free.
func TestStatsConcurrentSessions(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := New(Config{
		Name: "randtree", Workers: 2, SerialDepth: 2, TableBits: 10,
		MaxConcurrent: 2, Telemetry: NewTelemetry(reg),
	})
	tr := &randtree.Tree{Seed: 23, Degree: 4, Depth: 6, ValueRange: 1000}
	root := tr.Root()

	const sessions = 12
	var wg sync.WaitGroup
	var mu sync.Mutex
	okCount, rejected := 0, 0
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() { // concurrent Stats reader, stopped once the sessions drain
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := e.Stats()
				if s.Active < 0 || s.Active > s.Capacity || s.Waiting < 0 {
					t.Errorf("inconsistent live stats: %+v", s)
					return
				}
			}
		}
	}()
	go func() { // concurrent obs sampler: cumulative readings never go back
		defer readers.Done()
		var prev obs.Sample
		for {
			select {
			case <-stop:
				return
			default:
				var sm obs.Sample
				e.AddSample(&sm)
				if sm.InFlight < 0 || sm.InFlight > 2 || sm.Sessions < prev.Sessions ||
					sm.Iterations < prev.Iterations || sm.TTProbes < prev.TTProbes ||
					sm.TTHits < prev.TTHits || sm.TTHits > sm.TTProbes {
					t.Errorf("inconsistent live sample %+v after %+v", sm, prev)
					return
				}
				prev = sm
			}
		}
	}()
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := e.Analyze(context.Background(), root, 4)
			mu.Lock()
			defer mu.Unlock()
			switch err {
			case nil:
				okCount++
			case ErrBusy:
				rejected++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	st := e.Stats()
	if st.Started != int64(okCount) || st.Completed != int64(okCount) {
		t.Fatalf("started %d completed %d, want %d each", st.Started, st.Completed, okCount)
	}
	if st.Rejected != int64(rejected) {
		t.Fatalf("rejected counter %d, callers saw %d", st.Rejected, rejected)
	}
	if st.Active != 0 || st.Waiting != 0 {
		t.Fatalf("sessions drained but Active=%d Waiting=%d", st.Active, st.Waiting)
	}
	if okCount > 0 && (st.Nodes == 0 || st.SerialTasks+st.LeafTasks == 0) {
		t.Fatalf("work counters empty after %d sessions: %+v", okCount, st)
	}
	// Registry sessions by outcome must match the engine's own counters.
	completedSamples := registryCount(reg, "engine_sessions_total", "outcome", "completed")
	rejectedSamples := registryCount(reg, "engine_sessions_total", "outcome", "rejected")
	if int(completedSamples) != okCount || int(rejectedSamples) != rejected {
		t.Fatalf("registry saw %v completed / %v rejected, engine saw %d / %d",
			completedSamples, rejectedSamples, okCount, rejected)
	}

	// The drained engine reads the same through every view.
	var sm obs.Sample
	e.AddSample(&sm)
	for _, v := range []struct {
		name      string
		got, want int64
	}{
		{"sample sessions", sm.Sessions, st.Started},
		{"sample iterations", sm.Iterations, st.Iterations},
		{"sample probes", sm.Probes, st.Probes},
		{"sample sheds", sm.Sheds(), st.Rejected},
		{"sample steals", sm.Steals, st.Steals},
		{"sample steal fails", sm.StealFails, st.StealFails},
		{"sample tt probes", sm.TTProbes, st.TTProbes},
		{"sample tt hits", sm.TTHits, st.TTHits},
		{"sample tt fill", sm.TTFill, int64(st.TableFill)},
		{"sample tt len", sm.TTLen, int64(st.TableLen)},
		{"sample tt generations", sm.TTGenerations, int64(st.TableGeneration)},
		{"engine_session_nodes_total", registryCount(reg, "engine_session_nodes_total", "", ""), st.Nodes},
		{"core_tasks_total serial", registryCount(reg, "core_tasks_total", "kind", "serial"), st.SerialTasks},
		{"core_tasks_total leaf", registryCount(reg, "core_tasks_total", "kind", "leaf"), st.LeafTasks},
		{"core_tasks_total spec_pop", registryCount(reg, "core_tasks_total", "kind", "spec_pop"), st.SpecPops},
		{"core_tasks_total dropped", registryCount(reg, "core_tasks_total", "kind", "dropped"), st.Dropped},
		{"core_tasks_total cutoff_drop", registryCount(reg, "core_tasks_total", "kind", "cutoff_drop"), st.CutoffDrops},
		{"core_tasks_total steal", registryCount(reg, "core_tasks_total", "kind", "steal"), st.Steals},
		{"core_tasks_total steal_fail", registryCount(reg, "core_tasks_total", "kind", "steal_fail"), st.StealFails},
		{"core_tt_ops_total probe", registryCount(reg, "core_tt_ops_total", "op", "probe"), st.TTProbes},
		{"core_tt_ops_total hit", registryCount(reg, "core_tt_ops_total", "op", "hit"), st.TTHits},
		{"core_tt_ops_total store", registryCount(reg, "core_tt_ops_total", "op", "store"), st.TTStores},
		{"core_tt_ops_total cutoff", registryCount(reg, "core_tt_ops_total", "op", "cutoff"), st.TTCutoffs},
	} {
		if v.got != v.want {
			t.Errorf("%s = %d, Stats says %d", v.name, v.got, v.want)
		}
	}
}

// registryCount sums the samples of family whose label key has value val
// (every sample when key is empty).
func registryCount(reg *telemetry.Registry, family, key, val string) int64 {
	var n float64
	for _, fam := range reg.Snapshot() {
		if fam.Name != family {
			continue
		}
		for _, s := range fam.Samples {
			if key == "" || s.Labels[key] == val {
				n += s.Value
			}
		}
	}
	return int64(n)
}

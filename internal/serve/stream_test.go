package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// readSSE parses events off the stream until it ends or n events arrived
// (n <= 0 reads to EOF).
func readSSE(t *testing.T, r io.Reader, n int) []sseEvent {
	t.Helper()
	var (
		events []sseEvent
		cur    sseEvent
	)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" || cur.data != "" {
				events = append(events, cur)
				cur = sseEvent{}
				if n > 0 && len(events) >= n {
					return events
				}
			}
		}
	}
	return events
}

// TestAnalyzeStreamSSE is the streaming acceptance check: /analyze?stream=1
// answers text/event-stream with one "iteration" event per completed depth in
// deepening order, then a terminal "done" event carrying the same analysis
// the non-streaming endpoint would have returned.
func TestAnalyzeStreamSSE(t *testing.T) {
	ts := testServer(t, Config{Workers: 2, SerialDepth: 2, TableBits: 14, MaxConcurrent: 2})
	client := &http.Client{Timeout: 30 * time.Second}

	resp, err := client.Get(ts.URL + "/analyze?game=ttt&depth=6&budget_ms=20000&stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}

	events := readSSE(t, resp.Body, 0)
	if len(events) < 2 {
		t.Fatalf("stream produced %d events, want iterations + done", len(events))
	}
	last := events[len(events)-1]
	if last.name != "done" {
		t.Fatalf("stream ended with %q, want done", last.name)
	}
	var an analysisJSON
	if err := json.Unmarshal([]byte(last.data), &an); err != nil {
		t.Fatalf("done payload: %v", err)
	}
	if !an.Completed || an.Depth != 6 || an.Game != "ttt" {
		t.Fatalf("done analysis: %+v", an)
	}
	iterations := events[:len(events)-1]
	if len(iterations) != 6 {
		t.Fatalf("%d iteration events for a depth-6 session", len(iterations))
	}
	for i, ev := range iterations {
		if ev.name != "iteration" {
			t.Fatalf("event %d named %q", i, ev.name)
		}
		var it iterationJSON
		if err := json.Unmarshal([]byte(ev.data), &it); err != nil {
			t.Fatalf("iteration payload %d: %v", i, err)
		}
		if it.Depth != i+1 {
			t.Fatalf("iteration event %d at depth %d: out of order", i, it.Depth)
		}
	}
}

// TestStreamDisconnectCancelsSession: closing the SSE stream mid-session
// must cancel the search. The handler derives the session context from the
// request context, so the disconnect surfaces as a deadline-cut session in
// the engine's counters — the observable proof the search stopped early.
func TestStreamDisconnectCancelsSession(t *testing.T) {
	srv := New(Config{
		Workers: 2, SerialDepth: 4, MaxConcurrent: 1,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Timeout: 30 * time.Second}

	// Depth 32 with a generous budget cannot finish on its own before the
	// client hangs up; the first iteration event proves the session started.
	resp, err := client.Get(ts.URL + "/analyze?game=connect4&depth=32&budget_ms=25000&stream=1")
	if err != nil {
		t.Fatal(err)
	}
	if got := readSSE(t, resp.Body, 1); len(got) != 1 || got[0].name != "iteration" {
		resp.Body.Close()
		t.Fatalf("first stream event: %+v", got)
	}
	resp.Body.Close() // hang up mid-search

	deadline := time.Now().Add(20 * time.Second)
	for {
		st := srv.engines["connect4"].Stats()
		if st.DeadlineCut == 1 && st.Active == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session not cancelled by disconnect: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDebugFlightEndpoint: flight=1 retains a per-request report fetchable
// from /debug/flight by the request id, with the busy-time buckets forming an
// exact partition, and the listing shows it.
func TestDebugFlightEndpoint(t *testing.T) {
	ts := testServer(t, Config{Workers: 2, SerialDepth: 2, TableBits: 14, MaxConcurrent: 2})
	client := &http.Client{Timeout: 30 * time.Second}

	req, _ := http.NewRequest("GET", ts.URL+"/analyze?game=ttt&depth=6&budget_ms=20000&flight=1", nil)
	req.Header.Set("X-Request-ID", "flight-e2e-1")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight=1 analyze status %d", resp.StatusCode)
	}

	var rep struct {
		Label   string `json:"label"`
		Workers int    `json:"workers"`
		Tasks   int64  `json:"tasks"`
		BusyNS  int64  `json:"busy_ns"`
		Useful  struct {
			TimeNS int64 `json:"time_ns"`
		} `json:"useful_primary"`
		UsefulSpec struct {
			TimeNS int64 `json:"time_ns"`
		} `json:"useful_spec"`
		WastedSpec struct {
			TimeNS int64 `json:"time_ns"`
		} `json:"wasted_spec"`
		EventDrops int64 `json:"event_drops"`
	}
	getJSON(t, client, ts.URL+"/debug/flight?id=flight-e2e-1", http.StatusOK, &rep)
	if rep.Label != "flight-e2e-1" || rep.Workers != 2 || rep.Tasks <= 0 {
		t.Fatalf("flight report: %+v", rep)
	}
	if rep.EventDrops == 0 {
		if sum := rep.Useful.TimeNS + rep.UsefulSpec.TimeNS + rep.WastedSpec.TimeNS; sum != rep.BusyNS {
			t.Fatalf("buckets sum to %d ns, busy is %d ns", sum, rep.BusyNS)
		}
	}

	var listing struct {
		Reports []flightSummary `json:"reports"`
	}
	getJSON(t, client, ts.URL+"/debug/flight", http.StatusOK, &listing)
	found := false
	for _, e := range listing.Reports {
		found = found || e.ID == "flight-e2e-1"
	}
	if !found {
		t.Fatalf("listing misses the retained report: %+v", listing.Reports)
	}

	getJSON(t, client, ts.URL+"/debug/flight?id=nope", http.StatusNotFound, nil)
}

// TestSSEChurnFreesAdmissionSlots is the cancellation-churn regression: waves
// of SSE clients that hang up mid-search must cancel their sessions and
// return their admission slots, so the pool never leaks capacity under
// disconnect churn. Each round fills every slot with a deliberately
// unfinishable streaming search, disconnects them all, and proves the slots
// came back by running a normal request to completion.
func TestSSEChurnFreesAdmissionSlots(t *testing.T) {
	const slots = 2
	srv := New(Config{
		Workers: 2, SerialDepth: 4, MaxConcurrent: slots,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Timeout: 30 * time.Second}

	var cut int64
	for round := 1; round <= 3; round++ {
		var wg sync.WaitGroup
		for i := 0; i < slots; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Depth 32 cannot finish before the hangup; the first
				// iteration event proves the session holds a slot.
				resp, err := client.Get(ts.URL + "/analyze?game=connect4&depth=32&budget_ms=25000&stream=1")
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				if got := readSSE(t, resp.Body, 1); len(got) != 1 || got[0].name != "iteration" {
					t.Errorf("round %d: first stream event %+v", round, got)
				}
			}()
		}
		wg.Wait() // every stream started and then hung up
		cut += slots

		// The disconnects must surface as deadline-cut sessions with every
		// slot released.
		deadline := time.Now().Add(20 * time.Second)
		for {
			st := srv.engines["connect4"].Stats()
			if st.DeadlineCut == cut && st.Active == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: churned sessions not reaped: %+v", round, st)
			}
			time.Sleep(10 * time.Millisecond)
		}

		// Freed capacity is usable immediately: a plain request completes.
		var an analysisJSON
		getJSON(t, client, ts.URL+"/bestmove?game=ttt&depth=3&budget_ms=15000", http.StatusOK, &an)
		if !an.Completed {
			t.Fatalf("round %d: post-churn request did not complete: %+v", round, an)
		}
	}
}

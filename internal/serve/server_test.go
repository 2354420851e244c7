package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
)

func testServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	if cfg.Logger == nil {
		// Keep access logs out of the test output; log-asserting tests
		// inject their own buffer-backed logger.
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, client *http.Client, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e httpError
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("GET %s: status %d (%s), want %d", url, resp.StatusCode, e.Error, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: content type %q", url, ct)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
}

// TestBestMoveDepth8Connect4 is the acceptance scenario: a depth-8 Connect
// Four /bestmove request answered within a client-supplied deadline. The
// generous budget lets the search complete; the client deadline proves the
// answer arrived in time.
func TestBestMoveDepth8Connect4(t *testing.T) {
	ts := testServer(t, Config{Workers: 4, SerialDepth: 4, TableBits: 18, MaxConcurrent: 2})
	client := &http.Client{Timeout: 30 * time.Second}
	var an analysisJSON
	getJSON(t, client, ts.URL+"/bestmove?game=connect4&moves=3,3&depth=8&budget_ms=25000", http.StatusOK, &an)
	if !an.Completed || an.Depth != 8 || an.RequestedDepth != 8 {
		t.Fatalf("depth-8 search did not complete: %+v", an)
	}
	if an.Move < 0 || an.Move >= 7 {
		t.Fatalf("move %d out of range for Connect Four", an.Move)
	}
	if an.Game != "connect4" || an.Nodes <= 0 {
		t.Fatalf("malformed response: %+v", an)
	}
	if len(an.Iterations) != 0 {
		t.Fatalf("/bestmove leaked the iteration history: %+v", an)
	}
}

// TestBestMoveDeadlineCut is the other half of the acceptance scenario: when
// the budget cuts a deep search short, the server still answers 200 with the
// deepest completed iteration's move and completed=false.
func TestBestMoveDeadlineCut(t *testing.T) {
	ts := testServer(t, Config{Workers: 4, SerialDepth: 4, TableBits: 18, MaxConcurrent: 2})
	client := &http.Client{Timeout: 10 * time.Second}
	var an analysisJSON
	getJSON(t, client, ts.URL+"/bestmove?game=connect4&depth=32&budget_ms=300", http.StatusOK, &an)
	if an.Completed || an.Depth >= 32 {
		t.Fatalf("depth-32 Connect Four reported complete within 300ms: %+v", an)
	}
	if an.Depth < 1 || an.Move < 0 || an.Move >= 7 {
		t.Fatalf("no best-so-far move: %+v", an)
	}
}

// TestAnalyzeIterations checks that /analyze includes the per-iteration
// history, each iteration one ply deeper than the last.
func TestAnalyzeIterations(t *testing.T) {
	ts := testServer(t, Config{Workers: 2, SerialDepth: 3, TableBits: 16, MaxConcurrent: 2})
	client := &http.Client{Timeout: 10 * time.Second}
	var an analysisJSON
	getJSON(t, client, ts.URL+"/analyze?game=ttt&depth=9&budget_ms=20000", http.StatusOK, &an)
	if !an.Completed || len(an.Iterations) != 9 {
		t.Fatalf("tic-tac-toe analyze: %+v", an)
	}
	if an.Value != 0 {
		t.Fatalf("tic-tac-toe is a draw, got value %d", an.Value)
	}
	for i, it := range an.Iterations {
		if it.Depth != i+1 {
			t.Fatalf("iteration %d at depth %d", i, it.Depth)
		}
	}
	last := an.Iterations[len(an.Iterations)-1]
	if an.Move != last.Move || an.Depth != last.Depth {
		t.Fatalf("summary disagrees with the deepest iteration: %+v", an)
	}
}

// TestAllGamesAnswer smoke-tests every registered game end to end.
func TestAllGamesAnswer(t *testing.T) {
	ts := testServer(t, Config{Workers: 2, SerialDepth: 2, TableBits: 14, MaxConcurrent: 4})
	client := &http.Client{Timeout: 20 * time.Second}
	for name := range games {
		var an analysisJSON
		getJSON(t, client, ts.URL+"/bestmove?game="+name+"&depth=4&budget_ms=15000", http.StatusOK, &an)
		if !an.Completed || an.Move < 0 {
			t.Fatalf("%s: %+v", name, an)
		}
	}
}

func TestBadRequests(t *testing.T) {
	ts := testServer(t, Config{Workers: 1, MaxConcurrent: 1})
	client := &http.Client{Timeout: 5 * time.Second}
	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/bestmove?game=chess&depth=4", http.StatusBadRequest},
		{"/bestmove?depth=4", http.StatusBadRequest},
		{"/bestmove?game=connect4&depth=0", http.StatusBadRequest},
		{"/bestmove?game=connect4&depth=4&budget_ms=frog", http.StatusBadRequest},
		{"/bestmove?game=connect4&depth=99", http.StatusBadRequest},
		{"/bestmove?game=connect4&moves=9&depth=4", http.StatusBadRequest},
		{"/bestmove?game=connect4&moves=3,x&depth=4", http.StatusBadRequest},
	} {
		getJSON(t, client, ts.URL+tc.url, tc.code, nil)
	}
}

// TestBusyReturns503 fills the single session slot with a long search and
// verifies the next request is shed with 503 and a Retry-After header.
func TestBusyReturns503(t *testing.T) {
	ts := testServer(t, Config{Workers: 2, SerialDepth: 4, MaxConcurrent: 1, QueueTimeout: 50 * time.Millisecond})
	client := &http.Client{Timeout: 10 * time.Second}

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := client.Get(ts.URL + "/bestmove?game=connect4&depth=32&budget_ms=3000")
		if err == nil {
			resp.Body.Close()
		}
	}()
	// Wait until the long request owns the slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st statsJSON
		getJSON(t, client, ts.URL+"/stats", http.StatusOK, &st)
		if st.Active == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("long request never occupied the session slot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := client.Get(ts.URL + "/bestmove?game=ttt&depth=9")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity request: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	<-done
}

func TestHealthzAndStats(t *testing.T) {
	ts := testServer(t, Config{Workers: 1, MaxConcurrent: 3, TableBits: 12})
	client := &http.Client{Timeout: 5 * time.Second}

	var health map[string]any
	getJSON(t, client, ts.URL+"/healthz", http.StatusOK, &health)
	if health["status"] != "ok" || health["games"] != float64(len(games)) {
		t.Fatalf("healthz: %+v", health)
	}

	var an analysisJSON
	getJSON(t, client, ts.URL+"/bestmove?game=ttt&depth=5&budget_ms=10000", http.StatusOK, &an)

	var st statsJSON
	getJSON(t, client, ts.URL+"/stats", http.StatusOK, &st)
	if st.Capacity != 3 || st.Active != 0 {
		t.Fatalf("stats pool: %+v", st)
	}
	g, ok := st.Games["ttt"]
	if !ok || g.Started != 1 || g.Completed != 1 || g.Nodes <= 0 {
		t.Fatalf("stats for ttt: %+v", g)
	}
	if !g.HasTable || g.TTStores == 0 {
		t.Fatalf("ttt engine reports no table activity: %+v", g)
	}
}

// TestStatsAndHealthzKeys pins the JSON key sets of a /stats game entry and
// of /healthz. engine.Stats is built from embedded structs, and
// encoding/json silently drops clashing promoted fields, so a lost key would
// not fail to compile.
func TestStatsAndHealthzKeys(t *testing.T) {
	ts := testServer(t, Config{Workers: 1, MaxConcurrent: 2, TableBits: 12})
	client := &http.Client{Timeout: 5 * time.Second}
	getJSON(t, client, ts.URL+"/bestmove?game=ttt&depth=3&budget_ms=2000", http.StatusOK, nil)
	keys := func(m map[string]any) string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return strings.Join(ks, " ")
	}
	var st struct {
		Games map[string]map[string]any `json:"games"`
	}
	getJSON(t, client, ts.URL+"/stats", http.StatusOK, &st)
	want := "Active Backend BackendSessions Capacity Completed CutoffDrops DeadlineCut " +
		"Driver DriverSessions Dropped Failed HasTable HeapOps Iterations LeafTasks Nodes " +
		"Probes Rejected Researches SerialTasks ShedCancelled ShedFull ShedTimeout SpecPops " +
		"Started TTCutoffs TTHits TTProbes TTStores TableFill " +
		"TableGeneration TableHitRate TableImpl TableLen Waiting"
	if got := keys(st.Games["ttt"]); got != want {
		t.Errorf("/stats games.ttt keys:\n got %s\nwant %s", got, want)
	}
	var hz map[string]any
	getJSON(t, client, ts.URL+"/healthz", http.StatusOK, &hz)
	want = "anomalies backend capacity driver games in_flight status table_impl tt uptime_ms waiting"
	if got := keys(hz); got != want {
		t.Errorf("/healthz keys:\n got %s\nwant %s", got, want)
	}
	section, _ := hz["tt"].(map[string]any)
	if got, want := keys(section), "fill generation hit_rate impl len"; got != want {
		t.Errorf("/healthz tt keys:\n got %s\nwant %s", got, want)
	}
}

// TestTerminalPositionRejected asserts the no-moves mapping: a finished game
// cannot be searched.
func TestTerminalPositionRejected(t *testing.T) {
	ts := testServer(t, Config{Workers: 1, MaxConcurrent: 1})
	client := &http.Client{Timeout: 5 * time.Second}
	// Child indices walking X to a top-row win (cells 0,3,1,4,2): the
	// position after the last move is terminal.
	url := fmt.Sprintf("%s/bestmove?game=ttt&moves=%s&depth=3", ts.URL, "0,2,0,1,0")
	getJSON(t, client, url, http.StatusUnprocessableEntity, nil)
}

package serve

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ertree/internal/obs"
)

// obsTestServer builds a server with the self-monitor enabled at a fast
// sampling interval and guarantees its sampler goroutine is stopped.
func obsTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.ObsSample == 0 {
		cfg.ObsSample = 10 * time.Millisecond
	}
	srv := New(cfg)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// pollObsTotals polls /debug/obs until the given anomaly kind has fired (or
// the deadline passes) and returns the final report.
func pollObsTotals(t *testing.T, client *http.Client, base, kind string) obsReportWire {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var rep obsReportWire
		getJSON(t, client, base+"/debug/obs", http.StatusOK, &rep)
		if rep.Totals[kind] >= 1 {
			return rep
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %q anomaly within deadline; totals=%v detectors=%+v",
				kind, rep.Totals, rep.Detectors)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// awaitObsSample polls /debug/obs until the sampler has taken its first
// sample (or the deadline passes).
func awaitObsSample(t *testing.T, client *http.Client, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var rep obsReportWire
		getJSON(t, client, base+"/debug/obs", http.StatusOK, &rep)
		if len(rep.Samples) > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the obs sampler took no sample within the deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// obsReportWire decodes the /debug/obs JSON from the client side, proving the
// wire shape erload and operators consume.
type obsReportWire struct {
	Enabled      bool             `json:"enabled"`
	AnomalyTotal int64            `json:"anomaly_total"`
	Totals       map[string]int64 `json:"totals"`
	Samples      []struct {
		Sessions int64 `json:"sessions"`
		ShedFull int64 `json:"shed_full"`
	} `json:"samples"`
	Detectors []struct {
		Name  string `json:"name"`
		Fires int64  `json:"fires"`
	} `json:"detectors"`
	Anomalies []struct {
		ID        int64  `json:"id"`
		Kind      string `json:"kind"`
		Detail    string `json:"detail"`
		ProfileID int64  `json:"profile_id"`
	} `json:"anomalies"`
	Profiles []struct {
		ID        int64  `json:"id"`
		Kind      string `json:"kind"`
		Goroutine int    `json:"goroutine_bytes"`
		URL       string `json:"url"`
	} `json:"profiles"`
}

// TestDebugObsDisabled: without ObsSample the endpoint reports enabled=false
// (so pollers can tell "no anomalies" from "nobody watching") and /healthz
// carries a zero anomaly count.
func TestDebugObsDisabled(t *testing.T) {
	ts := testServer(t, Config{Workers: 1, MaxConcurrent: 1})
	client := &http.Client{Timeout: 5 * time.Second}
	var rep obsReportWire
	getJSON(t, client, ts.URL+"/debug/obs", http.StatusOK, &rep)
	if rep.Enabled {
		t.Fatalf("obs reports enabled on a server built without it: %+v", rep)
	}
	var h healthzJSON
	getJSON(t, client, ts.URL+"/healthz", http.StatusOK, &h)
	if h.Anomalies != 0 {
		t.Fatalf("healthz anomalies = %d with obs disabled", h.Anomalies)
	}
}

// TestDebugObsRingSamples: the sampler fills the ring with real gauge values
// — after one session the cumulative session counter shows up in the dump.
func TestDebugObsRingSamples(t *testing.T) {
	_, ts := obsTestServer(t, Config{Workers: 1, SerialDepth: 4, MaxConcurrent: 2, TableBits: 12})
	client := &http.Client{Timeout: 10 * time.Second}
	getJSON(t, client, ts.URL+"/bestmove?game=ttt&depth=4&budget_ms=2000", http.StatusOK, nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		var rep obsReportWire
		getJSON(t, client, ts.URL+"/debug/obs", http.StatusOK, &rep)
		if rep.Enabled && len(rep.Samples) > 0 && rep.Samples[len(rep.Samples)-1].Sessions >= 1 {
			if len(rep.Detectors) != 4 {
				t.Fatalf("detector states = %+v, want the 4 defaults", rep.Detectors)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never appeared in the sample ring: %+v", rep)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAnomalyInjectionShedSpike drives the admission layer into a shed spike
// (capacity 1, no queue, a burst of distinct requests) and asserts the whole
// detection pipeline: the shed-spike anomaly fires, obs_anomaly_total lands
// on /metrics, /healthz counts it, and the auto-captured goroutine profile
// downloads from /debug/obs/profiles/<id>.
func TestAnomalyInjectionShedSpike(t *testing.T) {
	_, ts := obsTestServer(t, Config{
		Workers: 1, SerialDepth: 4, MaxConcurrent: 1, CacheSize: 0,
	})
	client := &http.Client{Timeout: 10 * time.Second}

	// One slow search owns the single slot; 30 distinct requests behind it
	// shed immediately (no queue configured).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := client.Get(ts.URL + "/bestmove?game=othello&depth=12&budget_ms=1500")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the leader take the slot
	for i := 0; i < 30; i++ {
		resp, err := client.Get(fmt.Sprintf("%s/bestmove?game=connect4&moves=%d,%d&depth=10&budget_ms=500",
			ts.URL, i%7, (i/7)%7))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	rep := pollObsTotals(t, client, ts.URL, obs.KindShedSpike)
	wg.Wait()

	// The counter is on /metrics.
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `obs_anomaly_total{kind="shed-spike"}`) {
		t.Fatalf("/metrics missing obs_anomaly_total{kind=\"shed-spike\"}:\n%s", body)
	}

	// /healthz surfaces the count for load balancers.
	var h healthzJSON
	getJSON(t, client, ts.URL+"/healthz", http.StatusOK, &h)
	if h.Anomalies < 1 {
		t.Fatalf("healthz anomalies = %d after a detected shed spike", h.Anomalies)
	}

	// The anomaly retained a downloadable goroutine profile.
	var anom struct{ ID, ProfileID int64 }
	for _, a := range rep.Anomalies {
		if a.Kind == obs.KindShedSpike {
			anom.ID, anom.ProfileID = a.ID, a.ProfileID
		}
	}
	if anom.ProfileID == 0 {
		t.Fatalf("shed-spike anomaly carries no profile id: %+v", rep.Anomalies)
	}
	purl := fmt.Sprintf("%s/debug/obs/profiles/%d?type=goroutine", ts.URL, anom.ProfileID)
	presp, err := client.Get(purl)
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK || len(pb) == 0 {
		t.Fatalf("GET %s: status %d, %d bytes — want a retained pprof profile", purl, presp.StatusCode, len(pb))
	}
	if presp.Header.Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("profile content type %q", presp.Header.Get("Content-Type"))
	}

	// Unknown captures 404 with a JSON error.
	presp, err = client.Get(ts.URL + "/debug/obs/profiles/999999")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown profile id: status %d, want 404", presp.StatusCode)
	}
}

// TestAnomalyInjectionProbeStorm drives mtdf traffic against a monitor tuned
// so any probing looks like a storm, proving the probes/iteration pipeline:
// engine gauges → sample ring → detector → counter.
func TestAnomalyInjectionProbeStorm(t *testing.T) {
	_, ts := obsTestServer(t, Config{
		Workers: 1, SerialDepth: 4, MaxConcurrent: 2, TableBits: 14, CacheSize: 0,
		ObsDetectors: []obs.Detector{&obs.ProbeStorm{MaxPerIteration: 0.5, MinIterations: 2}},
	})
	client := &http.Client{Timeout: 10 * time.Second}
	// The detector reads deltas between samples, so the sessions must land
	// after the sampler's first sample: sessions that all finish before it
	// leave no delta to see.
	awaitObsSample(t, client, ts.URL)
	for i := 0; i < 3; i++ {
		getJSON(t, client,
			fmt.Sprintf("%s/bestmove?game=connect4&moves=%d&depth=6&budget_ms=2000&driver=mtdf", ts.URL, i),
			http.StatusOK, nil)
	}
	rep := pollObsTotals(t, client, ts.URL, obs.KindProbeStorm)
	if rep.AnomalyTotal < 1 {
		t.Fatalf("anomaly_total = %d", rep.AnomalyTotal)
	}
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `obs_anomaly_total{kind="probe-storm"}`) {
		t.Fatalf("/metrics missing obs_anomaly_total{kind=\"probe-storm\"}")
	}
}

// TestHealthzTTSection: with tables enabled /healthz carries the tt summary
// (impl, fill, hit_rate, generation) a balancer needs to spot degradation.
func TestHealthzTTSection(t *testing.T) {
	ts := testServer(t, Config{Workers: 1, SerialDepth: 4, MaxConcurrent: 2, TableBits: 12})
	client := &http.Client{Timeout: 10 * time.Second}
	getJSON(t, client, ts.URL+"/bestmove?game=connect4&depth=6&budget_ms=2000", http.StatusOK, nil)
	var h struct {
		healthzJSON
		TT *healthzTTJSON `json:"tt"`
	}
	getJSON(t, client, ts.URL+"/healthz", http.StatusOK, &h)
	if h.TT == nil {
		t.Fatal("healthz has no tt section with TableBits set")
	}
	if h.TT.Impl == "" || h.TT.Len <= 0 {
		t.Fatalf("tt section incomplete: %+v", h.TT)
	}
	if h.TT.Generation < 1 {
		t.Fatalf("tt generation %d after an admitted session, want >= 1", h.TT.Generation)
	}
	if h.TT.HitRate < 0 || h.TT.HitRate > 1 {
		t.Fatalf("tt hit rate out of range: %v", h.TT.HitRate)
	}
	// Without tables the section is omitted entirely.
	ts2 := testServer(t, Config{Workers: 1, MaxConcurrent: 1})
	var h2 struct {
		TT *healthzTTJSON `json:"tt"`
	}
	getJSON(t, client, ts2.URL+"/healthz", http.StatusOK, &h2)
	if h2.TT != nil {
		t.Fatalf("tt section present without tables: %+v", h2.TT)
	}
}

// TestAccessLogBackendDriverAttribution: every access-log line names the
// backend and driver that served the request — per-request overrides where
// given, the server defaults everywhere else.
func TestAccessLogBackendDriverAttribution(t *testing.T) {
	var logBuf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(&syncWriter{w: &logBuf, mu: &mu}, nil))
	ts := testServer(t, Config{
		Workers: 1, SerialDepth: 4, MaxConcurrent: 2, TableBits: 12,
		Backend: "er", Driver: "aspiration", Logger: logger,
	})
	client := &http.Client{Timeout: 10 * time.Second}
	getJSON(t, client, ts.URL+"/bestmove?game=ttt&depth=3&backend=serial&driver=mtdf&budget_ms=2000",
		http.StatusOK, nil)
	getJSON(t, client, ts.URL+"/healthz", http.StatusOK, nil)

	mu.Lock()
	out := logBuf.String()
	mu.Unlock()
	var bestmoveLine, healthzLine string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "path=/bestmove") {
			bestmoveLine = line
		}
		if strings.Contains(line, "path=/healthz") {
			healthzLine = line
		}
	}
	if bestmoveLine == "" || healthzLine == "" {
		t.Fatalf("missing access-log lines:\n%s", out)
	}
	if !strings.Contains(bestmoveLine, "backend=serial") || !strings.Contains(bestmoveLine, "driver=mtdf") {
		t.Fatalf("bestmove line lacks override attribution: %s", bestmoveLine)
	}
	if !strings.Contains(healthzLine, "backend=er") || !strings.Contains(healthzLine, "driver=aspiration") {
		t.Fatalf("healthz line lacks default attribution: %s", healthzLine)
	}
}

// syncWriter serializes concurrent slog writes into a shared buffer.
type syncWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

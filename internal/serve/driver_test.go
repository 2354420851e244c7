package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"ertree/internal/engine"
)

// defaultDriverName resolves the driver an unpinned engine defaults to, the
// same way engine.New does: ERTREE_DRIVER if set (CI's driver matrix routes
// unpinned sessions through each driver this way), else the built-in default.
func defaultDriverName() string {
	if d := os.Getenv(engine.EnvDriver); d != "" {
		return d
	}
	return engine.DefaultDriver
}

// TestDriverPerRequest drives one position through each root driver via the
// ?driver= parameter and checks the responses agree and are attributed to the
// driver that resolved them, in the response body, /stats, and /healthz.
func TestDriverPerRequest(t *testing.T) {
	ts := testServer(t, Config{Workers: 2, SerialDepth: 2, TableBits: 16, MaxConcurrent: 2})
	client := &http.Client{Timeout: 30 * time.Second}

	values := map[string]int{}
	for _, d := range []string{"aspiration", "mtdf"} {
		var an analysisJSON
		getJSON(t, client,
			ts.URL+"/analyze?game=connect4&moves=3,3&depth=6&budget_ms=25000&driver="+d,
			http.StatusOK, &an)
		if an.Driver != d {
			t.Fatalf("response attributes driver %q, requested %q", an.Driver, d)
		}
		if !an.Completed {
			t.Fatalf("driver %s did not complete: %+v", d, an)
		}
		values[d] = an.Value
		probes := 0
		for _, it := range an.Iterations {
			probes += it.Probes
		}
		if d == "aspiration" && probes != 0 {
			t.Fatalf("aspiration iterations report %d probes", probes)
		}
		if d == "mtdf" && probes == 0 {
			t.Fatalf("mtdf iterations report no probes: %+v", an.Iterations)
		}
	}
	for d, v := range values {
		if v != values["aspiration"] {
			t.Fatalf("driver %s found value %d, aspiration found %d", d, v, values["aspiration"])
		}
	}

	// No driver parameter: the server default resolves and is named. (Under
	// CI's driver matrix ERTREE_DRIVER decides what that default is.)
	def := defaultDriverName()
	var an analysisJSON
	getJSON(t, client, ts.URL+"/bestmove?game=ttt&depth=4&budget_ms=25000", http.StatusOK, &an)
	if an.Driver != def {
		t.Fatalf("default driver %q, want %q", an.Driver, def)
	}

	// /stats attributes the mixed traffic per driver and counts the probes.
	var st statsJSON
	getJSON(t, client, ts.URL+"/stats", http.StatusOK, &st)
	c4 := st.Games["connect4"]
	if c4.DriverSessions["aspiration"] != 1 || c4.DriverSessions["mtdf"] != 1 {
		t.Fatalf("connect4 driver attribution wrong: %+v", c4.DriverSessions)
	}
	if c4.Driver != def {
		t.Fatalf("engine default driver %q in stats, want %q", c4.Driver, def)
	}
	if c4.Probes == 0 {
		t.Fatal("stats report no probes after an mtdf session")
	}

	// /healthz names the resolved default driver.
	var hz healthzJSON
	getJSON(t, client, ts.URL+"/healthz", http.StatusOK, &hz)
	if hz.Driver != def {
		t.Fatalf("healthz driver %q, want %q", hz.Driver, def)
	}
}

// TestDriverValidation: an unknown ?driver= is a 400 naming the valid options
// — never a silent fallback to the default.
func TestDriverValidation(t *testing.T) {
	ts := testServer(t, Config{Workers: 1, MaxConcurrent: 1})
	resp, err := http.Get(ts.URL + "/bestmove?game=ttt&depth=3&driver=sssstar")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var e httpError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sssstar", "aspiration", "mtdf"} {
		if !strings.Contains(e.Error, want) {
			t.Fatalf("400 body %q does not mention %q", e.Error, want)
		}
	}
}

// TestDriverMetricsLabel: mixed-driver traffic shows up in /metrics under
// engine_driver_sessions_total and engine_driver_probes_total with the driver
// label.
func TestDriverMetricsLabel(t *testing.T) {
	ts := testServer(t, Config{Workers: 1, TableBits: 12, MaxConcurrent: 1})
	client := &http.Client{Timeout: 30 * time.Second}
	var an analysisJSON
	getJSON(t, client, ts.URL+"/bestmove?game=ttt&depth=4&budget_ms=25000&driver=mtdf", http.StatusOK, &an)
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.Contains(body, `engine_driver_sessions_total{game="ttt",driver="mtdf"} 1`) {
		t.Fatalf("metrics missing driver-labeled session counter:\n%s", body)
	}
	if !strings.Contains(body, `engine_driver_probes_total{game="ttt",driver="mtdf"}`) {
		t.Fatalf("metrics missing driver-labeled probe counter:\n%s", body)
	}
}

// TestDriverCacheKey: identical requests differing only in ?driver= must not
// coalesce onto one flight or serve each other's cached answer — the
// attribution in the response body would be wrong.
func TestDriverCacheKey(t *testing.T) {
	ts := testServer(t, Config{Workers: 1, TableBits: 12, CacheSize: 16, MaxConcurrent: 1})
	client := &http.Client{Timeout: 30 * time.Second}
	var asp, mtdf analysisJSON
	getJSON(t, client, ts.URL+"/bestmove?game=ttt&depth=4&budget_ms=25000&driver=aspiration", http.StatusOK, &asp)
	getJSON(t, client, ts.URL+"/bestmove?game=ttt&depth=4&budget_ms=25000&driver=mtdf", http.StatusOK, &mtdf)
	if asp.Driver != "aspiration" || mtdf.Driver != "mtdf" {
		t.Fatalf("cache crossed drivers: %q then %q", asp.Driver, mtdf.Driver)
	}
	var st statsJSON
	getJSON(t, client, ts.URL+"/stats", http.StatusOK, &st)
	if hits := st.AnswerCache.Hits; hits != 0 {
		t.Fatalf("second driver's request hit the first's cache entry (%d hits)", hits)
	}
	// Same driver again: now the cache answers.
	getJSON(t, client, ts.URL+"/bestmove?game=ttt&depth=4&budget_ms=25000&driver=mtdf", http.StatusOK, &mtdf)
	getJSON(t, client, ts.URL+"/stats", http.StatusOK, &st)
	if st.AnswerCache.Hits != 1 {
		t.Fatalf("repeat request missed the cache: %+v", st.AnswerCache)
	}
}

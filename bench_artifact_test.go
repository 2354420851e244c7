package ertree_test

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"ertree"
)

// TestBenchArtifactBackendCurves guards the committed BENCH_core.json: the
// head-to-head benchmark must have produced a curve for every registered
// backend and root driver, every point on the lock-free table and every
// driver point on a registered driver, plus enough host metadata to
// interpret the numbers on different hardware. CI's bench smoke regenerates
// the artifact first, so a sweep that silently drops a backend or a driver
// fails here rather than in a human's spreadsheet, and an artifact left over
// from an arm that no longer exists fails too.
func TestBenchArtifactBackendCurves(t *testing.T) {
	raw, err := os.ReadFile("BENCH_core.json")
	if err != nil {
		t.Fatalf("missing benchmark artifact: %v", err)
	}
	var art struct {
		GoVersion  string  `json:"go_version"`
		GOOS       string  `json:"goos"`
		GOARCH     string  `json:"goarch"`
		NumCPU     int     `json:"num_cpu"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		LazyVsER   float64 `json:"lazysmp_vs_er_at_max_p"`
		MTDFvsAsp  float64 `json:"mtdf_vs_aspiration_at_max_p"`
		Points     []struct {
			Backend string `json:"backend"`
			Table   string `json:"table"`
			Workers int    `json:"workers"`
			Value   int    `json:"value"`
			Nodes   int64  `json:"nodes"`
		} `json:"points"`
		DriverSweep []struct {
			Workload   string `json:"workload"`
			Driver     string `json:"driver"`
			Workers    int    `json:"workers"`
			Value      int    `json:"value"`
			Nodes      int64  `json:"nodes"`
			Probes     int64  `json:"probes"`
			Researches int64  `json:"researches"`
		} `json:"driver_sweep"`
	}
	if err := json.Unmarshal(raw, &art); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	// The keys of the retired work-stealing heap arm mark an artifact the
	// current benchmark did not write.
	var stale struct {
		Ratio  *float64         `json:"sharded_vs_global_at_max_p"`
		Points []map[string]any `json:"points"`
	}
	if err := json.Unmarshal(raw, &stale); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if stale.Ratio != nil {
		t.Fatal("artifact carries sharded_vs_global_at_max_p: regenerate it with the one-heap benchmark")
	}
	for _, p := range stale.Points {
		if _, ok := p["sharded"]; ok {
			t.Fatalf("point carries a sharded field: regenerate the artifact: %v", p)
		}
	}

	if art.GoVersion == "" || art.GOOS == "" || art.GOARCH == "" {
		t.Fatalf("artifact missing toolchain metadata: %+v", art)
	}
	if art.NumCPU < 1 || art.GOMAXPROCS < 1 {
		t.Fatalf("artifact missing host metadata: num_cpu=%d gomaxprocs=%d", art.NumCPU, art.GOMAXPROCS)
	}
	if art.LazyVsER <= 0 {
		t.Fatalf("artifact missing lazysmp_vs_er_at_max_p ratio: %v", art.LazyVsER)
	}
	if art.MTDFvsAsp <= 0 {
		t.Fatalf("artifact missing mtdf_vs_aspiration_at_max_p ratio: %v", art.MTDFvsAsp)
	}
	warnSingleCPUArtifact(t, art.NumCPU, fmt.Sprintf(
		"parallel speedups and the mtdf-vs-aspiration ratio (%.2f)", art.MTDFvsAsp))

	perBackend := map[string]int{}
	for _, p := range art.Points {
		perBackend[p.Backend]++
		if p.Nodes <= 0 {
			t.Fatalf("point with no node count: %+v", p)
		}
		if p.Table != ertree.TableLockFree {
			t.Fatalf("point on table %q, want %q: %+v", p.Table, ertree.TableLockFree, p)
		}
	}
	for _, be := range []string{"er", "serial", "lazysmp"} {
		if perBackend[be] == 0 {
			t.Fatalf("artifact has no %q curve (points per backend: %v)", be, perBackend)
		}
	}

	// The driver sweep must carry every registered root driver and no other,
	// each point with the probe/re-search split that distinguishes the
	// drivers — aspiration never spends null-window probes, mtdf always does —
	// and all drivers on one workload must have found the same exact value
	// (they resolve the same fixed-depth trees).
	perDriver := map[string]int{}
	valueByWorkload := map[string]map[string]int{}
	for _, p := range art.DriverSweep {
		perDriver[p.Driver]++
		if !ertree.ValidDriver(p.Driver) {
			t.Fatalf("driver point for unregistered driver %q: %+v", p.Driver, p)
		}
		if p.Workload == "" || p.Workers < 1 {
			t.Fatalf("driver point missing identity: %+v", p)
		}
		if p.Nodes <= 0 {
			t.Fatalf("driver point with no node count: %+v", p)
		}
		if p.Driver == "aspiration" {
			if p.Probes != 0 {
				t.Fatalf("aspiration point reports null-window probes: %+v", p)
			}
		} else if p.Probes <= 0 {
			t.Fatalf("%s point reports no null-window probes: %+v", p.Driver, p)
		}
		if valueByWorkload[p.Workload] == nil {
			valueByWorkload[p.Workload] = map[string]int{}
		}
		valueByWorkload[p.Workload][p.Driver] = p.Value
	}
	for _, d := range ertree.Drivers() {
		if perDriver[d] == 0 {
			t.Fatalf("artifact has no %q driver curve (points per driver: %v)", d, perDriver)
		}
	}
	for wl, vals := range valueByWorkload {
		want, ok := vals["aspiration"]
		if !ok {
			t.Fatalf("workload %q has no aspiration reference point", wl)
		}
		for d, v := range vals {
			if v != want {
				t.Fatalf("workload %q: driver %q found %d, aspiration found %d", wl, d, v, want)
			}
		}
	}
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"ertree"
)

func TestPercentileRankKeepsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.9); got != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 0.5); got != 50 {
		t.Fatalf("p50 of 1..100 = %v, want 50", got)
	}
	if b := beyond(100, 0.9); b != minBeyond {
		t.Fatalf("100 samples leave %d beyond p90, want %d", b, minBeyond)
	}
	if b := beyond(99, 0.9); b >= minBeyond {
		t.Fatalf("99 samples leave %d beyond p90, want fewer than %d", b, minBeyond)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Fatal("percentile of no samples should be NaN")
	}
}

func TestSelfTimeUnionsOverlappingWorkers(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := interval{at(0), at(100)}
	children := []interval{
		{at(10), at(40)}, {at(50), at(60)}, // worker 0
		{at(30), at(70)},  // worker 1, overlapping both of worker 0's tasks
		{at(90), at(120)}, // ends after the parent: only 10ms lie inside it
	}
	// Summed, the children cover 110ms of a 100ms parent; their union
	// inside the parent is [10,70] and [90,100], 70ms.
	if got := unionWithin(parent, children); got != 70*time.Millisecond {
		t.Fatalf("union = %v, want 70ms", got)
	}
	if got := selfTime(parent, children); got != 30*time.Millisecond {
		t.Fatalf("self = %v, want 30ms", got)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Fatalf("self without children = %v, want 100ms", got)
	}
}

func TestSamplerReportsMedianAndStops(t *testing.T) {
	var calls atomic.Int64
	enough := make(chan struct{})
	s := startSampler(time.Millisecond, func() (float64, error) {
		n := calls.Add(1)
		if n == 9 {
			close(enough)
		}
		return float64(n), nil
	})
	<-enough
	got := s.stop()
	n := calls.Load()
	// The samples are 1..n, so the nearest-rank median is ceil(n/2).
	if want := float64((n + 1) / 2); got != want {
		t.Fatalf("median of 1..%d = %v, want %v", n, got, want)
	}
	time.Sleep(5 * time.Millisecond)
	if calls.Load() != n {
		t.Fatal("sampler kept reading after stop returned")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for name, w := range workloads {
		a, b := w.corpus(42, 3), w.corpus(42, 3)
		if a.fingerprint() != b.fingerprint() {
			t.Errorf("%s: same seed, different fingerprints", name)
		}
		if len(a.items) != len(b.items) || len(a.requests) != len(b.requests) {
			t.Fatalf("%s: same seed, different corpus sizes", name)
		}
		for i := range a.items {
			if a.items[i].key() != b.items[i].key() {
				t.Fatalf("%s: item %d differs: %s vs %s", name, i, a.items[i].key(), b.items[i].key())
			}
		}
		if w.corpus(43, 3).fingerprint() == a.fingerprint() {
			t.Errorf("%s: different seeds, same fingerprint", name)
		}
	}
	// serve asks every seed for the same positions in the same order.
	s, o := serveCorpus(42, 3), serveCorpus(43, 3)
	if len(s.items) != len(o.items) {
		t.Fatalf("serve: %d positions for one seed, %d for another", len(s.items), len(o.items))
	}
	for i := range s.items {
		if s.items[i].key() != o.items[i].key() {
			t.Fatalf("serve: position %d differs between seeds: %s vs %s", i, s.items[i].key(), o.items[i].key())
		}
	}
	// Every block of requests has exactly the intended mix.
	for b := 0; b+mixBlock <= len(s.requests); b += mixBlock {
		hot, analyze := 0, 0
		for _, q := range s.requests[b : b+mixBlock] {
			if q.hot {
				hot++
			}
			if q.analyze {
				analyze++
			}
		}
		if want := int(math.Round(serveHotShare * mixBlock)); hot != want {
			t.Fatalf("block at %d: %d hot requests, want exactly %d", b, hot, want)
		}
		if want := int(math.Round(serveAnalyzeShare * mixBlock)); analyze != want {
			t.Fatalf("block at %d: %d /analyze requests, want exactly %d", b, analyze, want)
		}
	}
}

func TestWrongValueLowersOKShare(t *testing.T) {
	g := newGenerator(5, []spec{{&connect4Fam, 3, 1}, {&randtreeFam, 3, 1}})
	items := g.drawN(6)
	p := &phase{setup: []float64{1}, wall: time.Second}
	for i := range items {
		v := ertree.AlphaBeta(items[i].pos, items[i].depth)
		if i == 2 {
			v++ // the program answers one position wrongly
		}
		p.ops = append(p.ops, outcome{item: i, value: v, full: true})
	}
	p.ops = append(p.ops, outcome{item: 0, full: false}) // and stops short on another
	verify(p, items, 2)
	if len(p.mismatch) != 1 || p.okOps != len(items)-1 {
		t.Fatalf("mismatches %v, ok %d; want one mismatch and %d ok", p.mismatch, p.okOps, len(items)-1)
	}
	if got, want := endToEnd(p)["ok_share"], float64(len(items)-1)/float64(len(items)+1); got != want {
		t.Fatalf("ok_share = %v, want %v", got, want)
	}
}

func TestAdmissionP90FromPrometheusText(t *testing.T) {
	before := promBuckets(`engine_admission_wait_seconds_bucket{game="a",le="0.001"} 5
engine_admission_wait_seconds_bucket{game="a",le="0.01"} 5
engine_admission_wait_seconds_bucket{game="a",le="+Inf"} 5
`, "engine_admission_wait_seconds")
	after := promBuckets(`engine_admission_wait_seconds_bucket{game="a",le="0.001"} 10
engine_admission_wait_seconds_bucket{game="a",le="0.01"} 14
engine_admission_wait_seconds_bucket{game="a",le="+Inf"} 15
engine_admission_wait_seconds_bucket{game="b",le="0.001"} 5
engine_admission_wait_seconds_bucket{game="b",le="0.01"} 5
engine_admission_wait_seconds_bucket{game="b",le="+Inf"} 5
`, "engine_admission_wait_seconds")
	// 15 new waits: 10 under 1ms, 4 under 10ms, 1 above; p90 is the 14th.
	if got := admissionP90(before, after); got != 0.01 {
		t.Fatalf("p90 = %v, want 0.01", got)
	}
}

// BENCHMARK.json must list exactly the metrics the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || got[i].Better != want[i].better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark prints %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, perLayerDefs())
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark lacks", w.Name)
		}
	}
}

package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// rank returns the 1-based nearest rank of the p-quantile among n sorted
// samples: the smallest rank whose cumulative share reaches p.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is how many of n samples lie strictly above the p-quantile's rank.
// A percentile is only reported when at least minBeyond samples back it.
func beyond(n int, p float64) int { return n - rank(n, p) }

const minBeyond = 10

// percentile is the nearest-rank p-quantile of xs (NaN for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// interval is a closed time span on the monotonic clock.
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration {
	if iv.end.Before(iv.start) {
		return 0
	}
	return iv.end.Sub(iv.start)
}

// unionWithin is the length of the union of spans, each clipped to within.
// Spans from parallel workers overlap; counting their union instead of their
// sum keeps a parent's self time non-negative.
func unionWithin(within interval, spans []interval) time.Duration {
	clipped := make([]interval, 0, len(spans))
	for _, s := range spans {
		if s.start.Before(within.start) {
			s.start = within.start
		}
		if s.end.After(within.end) {
			s.end = within.end
		}
		if s.end.After(s.start) {
			clipped = append(clipped, s)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var total time.Duration
	var cur interval
	for i, s := range clipped {
		switch {
		case i == 0:
			cur = s
		case !s.start.After(cur.end):
			if s.end.After(cur.end) {
				cur.end = s.end
			}
		default:
			total += cur.dur()
			cur = s
		}
	}
	if len(clipped) > 0 {
		total += cur.dur()
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent interval, children []interval) time.Duration {
	return parent.dur() - unionWithin(parent, children)
}

// sampler calls read every interval on its own goroutine until stop, and
// keeps the values. The RSS metric is the median of these samples: a peak
// would report one GC cycle's high-water mark rather than the working set.
type sampler struct {
	mu   sync.Mutex
	vals []float64
	quit chan struct{}
	done chan struct{}
}

func startSampler(every time.Duration, read func() (float64, error)) *sampler {
	s := &sampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if v, err := read(); err == nil {
				s.mu.Lock()
				s.vals = append(s.vals, v)
				s.mu.Unlock()
			}
			select {
			case <-s.quit:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling, waits for the goroutine and returns the median sample.
func (s *sampler) stop() float64 {
	close(s.quit)
	<-s.done
	return median(s.vals)
}

// readRSSMB reads the process's resident set from /proc/self/statm.
func readRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks reads the aggregate cpu line of /proc/stat: total jiffies and
// the steal column (time the hypervisor ran someone else on our vCPUs).
func hostTicks() (total, steal float64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	for i, v := range fields[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		if i < 8 { // user..steal; guest time is already inside user
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return total, steal
}

// rtSnapshot holds the Go runtime counters the runtime layer reports.
type rtSnapshot struct {
	gcCycles   float64
	gcCPU      float64
	allocBytes float64
	sched      *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

func readRuntime() rtSnapshot {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	num := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	r := rtSnapshot{gcCycles: num(ss[0]), gcCPU: num(ss[1]), allocBytes: num(ss[2])}
	if ss[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := ss[3].Value.Float64Histogram()
		r.sched = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: append([]float64(nil), h.Buckets...),
		}
	}
	return r
}

// histQuantile is the p-quantile of a bucketed histogram, given the count
// in each bucket and its upper bound: the bound of the bucket that holds the
// quantile, so it never understates (an unbounded last bucket reports the
// bound below it).
func histQuantile(counts []float64, upper []float64, p float64) float64 {
	var n float64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	target := p * n
	var cum float64
	for i, c := range counts {
		cum += c
		if cum >= target {
			if math.IsInf(upper[i], 1) && i > 0 {
				return upper[i-1]
			}
			return upper[i]
		}
	}
	return upper[len(upper)-1]
}

// schedLatencyP90 is the p90 goroutine scheduling latency between two
// runtime snapshots, in seconds.
func schedLatencyP90(a, b rtSnapshot) float64 {
	if a.sched == nil || b.sched == nil || len(a.sched.Counts) != len(b.sched.Counts) {
		return 0
	}
	counts := make([]float64, len(b.sched.Counts))
	for i := range counts {
		counts[i] = float64(b.sched.Counts[i] - a.sched.Counts[i])
	}
	return histQuantile(counts, b.sched.Buckets[1:], 0.9)
}

// cpuModel names the host CPU from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"time"

	"ertree"
	"ertree/internal/engine"
	"ertree/internal/serve"
)

// outcome is one op as the benchmark saw it.
type outcome struct {
	item       int
	sent, done time.Time
	err        error
	value      ertree.Value
	full       bool          // returned without error, at full depth
	elapsed    time.Duration // serve: the session time the response reports
	hot        bool          // serve: a hot-set request, answered by the cache
}

func (o *outcome) latency() time.Duration { return o.done.Sub(o.sent) }

// phase is one measured run of a workload: set-up samples, then the timed
// phase's ops and process-level readings.
type phase struct {
	setup    []float64 // seconds, one per repetition
	ops      []outcome
	wall     time.Duration
	cpu      time.Duration
	rssMB    float64
	steal    float64
	rt0      rtSnapshot
	rt1      rtSnapshot
	layer    map[string]float64 // per-layer readings the workload takes itself
	mismatch []string
	okOps    int
}

// workload is one benchmark workload. run measures it on a corpus; with a
// tracer it builds the program with the wrapper backend and driver names.
type workload struct {
	name   string
	corpus func(seed int64, seconds int) *corpus
	run    func(c *corpus, seconds, workers int, t *tracer) (*phase, error)
}

var workloads = map[string]workload{
	"solve": {"solve", solveCorpus, runSolve},
	"mtdf":  {"mtdf", mtdfCorpus, runMTDF},
	"serve": {"serve", serveCorpus, runServe},
}

// Set-up repetitions per run; setup_s is their median.
const (
	solveSetupReps  = 21
	solveSetupBlock = 1000
	setupReps       = 7
)

// timed runs body as the timed phase, reading CPU, RSS, host steal and Go
// runtime counters around it. body returns the ops and when the phase began.
func timed(p *phase, body func() (time.Time, []outcome)) {
	runtime.GC()
	p.rt0 = readRuntime()
	total0, steal0 := hostTicks()
	cpu0 := cpuTime()
	// Every sample wakes an otherwise idle vCPU, which on serve delays the
	// requests it lands beside; 100 ms still gives 300 samples in 30 s.
	rss := startSampler(100*time.Millisecond, readRSSMB)
	start, ops := body()
	end := start
	for i := range ops {
		if ops[i].done.After(end) {
			end = ops[i].done
		}
	}
	p.cpu = cpuTime() - cpu0
	p.rssMB = rss.stop()
	p.rt1 = readRuntime()
	total1, steal1 := hostTicks()
	if total1 > total0 {
		p.steal = (steal1 - steal0) / (total1 - total0)
	}
	p.wall = end.Sub(start)
	p.ops = ops
}

// closedLoop runs do back to back over the items, cycling if they run out,
// until seconds have passed: one caller that waits for each reply.
func closedLoop(seconds, n int, do func(i int) outcome) (time.Time, []outcome) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	var ops []outcome
	for i := 0; time.Now().Before(deadline); i++ {
		s := time.Now()
		o := do(i % n)
		o.item, o.sent, o.done = i%n, s, time.Now()
		ops = append(ops, o)
	}
	return start, ops
}

// verify checks every op against serial alpha-beta at the same depth. The
// oracle runs after the timed phase, on workers goroutines, once per
// distinct position.
func verify(p *phase, items []item, workers int) {
	need := map[int]bool{}
	for _, o := range p.ops {
		need[o.item] = true
	}
	idx := make(chan int, len(need))
	for i := range need {
		idx <- i
	}
	close(idx)
	oracle := make([]ertree.Value, len(items))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				oracle[i] = alphaBeta(&items[i])
			}
		}()
	}
	wg.Wait()
	for _, o := range p.ops {
		switch {
		case o.err != nil:
		case !o.full:
		case o.value != oracle[o.item]:
			p.mismatch = append(p.mismatch, fmt.Sprintf("%s: got %d, alpha-beta %d", items[o.item].key(), o.value, oracle[o.item]))
		default:
			p.okOps++
		}
	}
}

// alphaBeta is the oracle: serial fail-soft alpha-beta at the item's depth,
// under the family's move ordering where it has one (the value does not
// depend on the order; the ordering only makes the oracle cheaper).
func alphaBeta(it *item) ertree.Value {
	if it.fam.order == nil {
		return ertree.AlphaBeta(it.pos, it.depth)
	}
	s := ertree.Serial{Order: it.fam.order}
	return s.AlphaBeta(it.pos, it.depth, ertree.FullWindow())
}

// ---- solve: the paper's own measurement ------------------------------------

// Depths keep a search near 20 ms on two workers, with the paper's serial
// grain of depth-2 (Table 3's ratio for Othello).
var solveSpecs = []spec{
	{&othelloFam, 6, 4},
	{&connect4Fam, 8, 5},
	{&checkersFam, 7, 5},
	{&randtreeFam, 10, 7}, // R1: degree 4, 10 ply, serial depth 7
}

func solveCorpus(seed int64, seconds int) *corpus {
	g := newGenerator(seed, solveSpecs)
	return &corpus{items: g.drawN(120 * seconds), warm: g.drawN(2 * len(solveSpecs))}
}

// solveConfig is the paper's configuration: every speculation mechanism on,
// the family's serial grain and ordering, no table.
func solveConfig(sp spec, workers int) ertree.Config {
	return ertree.Config{Workers: workers, SerialDepth: sp.serialDepth, Order: sp.fam.order}
}

func runSolve(c *corpus, seconds, workers int, t *tracer) (*phase, error) {
	p := &phase{}
	// Set-up is what a caller builds before its first search: the start
	// position of each family. It takes well under a microsecond, so it is
	// timed in blocks of solveSetupBlock. Each block
	// starts from an idle process, as a program's set-up does: timed back
	// to back, the blocks' median moved by half between runs.
	var sink []ertree.Position
	runtime.GC() // start from the same heap state whatever the corpus left
	for r := 0; r < solveSetupReps; r++ {
		time.Sleep(10 * time.Millisecond)
		s := time.Now()
		for b := 0; b < solveSetupBlock; b++ {
			sink = sink[:0]
			for _, sp := range solveSpecs {
				if sp.fam.start != nil {
					sink = append(sink, sp.fam.start())
				} else {
					sink = append(sink, ertree.NewRandomTree(uint64(b), treeDegree, sp.depth).Root())
				}
			}
		}
		p.setup = append(p.setup, time.Since(s).Seconds()/solveSetupBlock)
	}
	search := func(it *item) outcome {
		cfg := solveConfig(it.spec, workers)
		var res ertree.Result
		var err error
		if t := active.Load(); t != nil {
			res, err = t.searchTraced(it.pos, it.depth, cfg)
		} else {
			res, err = ertree.Search(it.pos, it.depth, cfg)
		}
		return outcome{err: err, value: res.Value, full: err == nil && res.Exact}
	}
	for i := range c.warm {
		search(&c.warm[i])
	}
	timed(p, func() (time.Time, []outcome) {
		if t != nil {
			active.Store(t)
			defer active.Store(nil)
		}
		return closedLoop(seconds, len(c.items), func(i int) outcome { return search(&c.items[i]) })
	})
	verify(p, c.items, workers)
	return p, nil
}

// ---- mtdf: MTD(f) sessions on the shared table ------------------------------

// Depths keep a session near 50 ms, so a run holds several hundred.
var mtdfSpecs = []spec{
	{&othelloFam, 4, 2},
	{&connect4Fam, 6, 3},
	{&checkersFam, 5, 3},
	{&randtreeFam, 8, 5},
}

const mtdfTableBits = 20

func mtdfCorpus(seed int64, seconds int) *corpus {
	g := newGenerator(seed, mtdfSpecs)
	return &corpus{items: g.drawN(40 * seconds), warm: g.drawN(2 * len(mtdfSpecs))}
}

func runMTDF(c *corpus, seconds, workers int, t *tracer) (*phase, error) {
	p := &phase{layer: map[string]float64{}}
	be, drv := "er", "mtdf"
	if t != nil {
		be, drv = tracedBackendName, tracedMTDFName
	}
	build := func() map[string]*engine.Engine {
		engines := map[string]*engine.Engine{}
		for _, sp := range mtdfSpecs {
			engines[sp.fam.name] = engine.New(engine.Config{
				Name: sp.fam.name, Backend: be, Driver: drv, Workers: workers,
				SerialDepth: sp.serialDepth, Order: sp.fam.order,
				TableBits: mtdfTableBits, TableImpl: ertree.TableLockFree, MaxConcurrent: 1,
			})
		}
		return engines
	}
	// Every repetition stays alive until the last, so each one gets fresh
	// memory for its tables, like the first does in a fresh process.
	var reps []map[string]*engine.Engine
	for r := 0; r < setupReps; r++ {
		runtime.GC()
		s := time.Now()
		reps = append(reps, build())
		p.setup = append(p.setup, time.Since(s).Seconds())
	}
	engines := reps[len(reps)-1]
	reps = nil
	ctx := context.Background()
	analyze := func(it *item) outcome {
		an, err := engines[it.fam.name].AnalyzeSession(ctx, it.pos, it.depth, engine.SessionOptions{})
		if err != nil {
			return outcome{err: err}
		}
		return outcome{value: an.Value, full: an.Completed && an.Depth == it.depth}
	}
	for i := range c.warm {
		analyze(&c.warm[i])
	}
	timed(p, func() (time.Time, []outcome) {
		if t != nil {
			active.Store(t)
			defer active.Store(nil)
		}
		return closedLoop(seconds, len(c.items), func(i int) outcome { return analyze(&c.items[i]) })
	})
	var fill, slots float64
	for _, e := range engines {
		fill += float64(e.Table().Fill())
		slots += float64(e.Table().Len())
	}
	p.layer["tt.fill_share"] = fill / slots
	verify(p, c.items, workers)
	return p, nil
}

// ---- serve: HTTP requests against an in-process server ---------------------

// Request depths put each search at roughly 15-25 ms on two workers with
// the server's serial grain, so p90 is a quantile over all three games'
// searches rather than the tail of the slowest game.
var serveSpecs = []spec{
	{&othelloFam, 5, 3},
	{&connect4Fam, 7, 3},
	{&checkersFam, 7, 3},
}

// serve is a closed loop: one caller sends each request when the previous
// reply is in. Open-loop arrivals at a sixth of the host's load left the VM
// idle between requests, and its wake-up time then made most of a request's
// latency: a cached answer took 1.6 ms from its due time against 0.37 ms in
// the closed loop, and a run with 5% VM steal raised open-loop p90 by a
// third while closed-loop p90 moved within 5% up to 7% steal.
const (
	serveMaxRate      = 500 // requests generated per second of the run; about 130/s are sent on the reference host
	serveHotItems     = 12
	serveHotShare     = 2.0 / 3
	serveAnalyzeShare = 0.15
	serveBudgetMS     = 10000
)

// servePoolSeed fixes the positions serve searches. Search costs differ
// ten-fold between positions of one game, so positions drawn per seed moved
// p90 by about 8% between seeds before any host noise. Every seed asks for
// the same distinct positions in the same order; the run's seed draws which
// requests hit the hot set, which hot position, and which use /analyze.
const servePoolSeed = 1

func serveCorpus(seed int64, seconds int) *corpus {
	g := newGenerator(servePoolSeed, serveSpecs)
	c := &corpus{items: g.drawN(serveHotItems), hot: serveHotItems}
	c.warm = g.drawN(2 * len(serveSpecs))
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	c.requests = requestMix(r, serveMaxRate*seconds, serveHotItems, serveHotShare, serveAnalyzeShare, func() int {
		c.items = append(c.items, g.draw())
		return len(c.items) - 1
	})
	return c
}

// serveConfig is cmd/erserve's default configuration except for the worker
// count and the access log, which goes nowhere.
func serveConfig(workers int, be, drv string) serve.Config {
	return serve.Config{
		Workers: workers, Backend: be, Driver: drv, SerialDepth: 3,
		TableBits: 20, TableImpl: ertree.TableLockFree, CacheSize: 256,
		MaxConcurrent: 2, QueueTimeout: time.Second, MaxDepth: 32,
		DefaultBudget: 5 * time.Second,
		Logger:        slog.New(slog.NewJSONHandler(io.Discard, nil)),
		ObsSample:     250 * time.Millisecond,
	}
}

// liveServer is a started in-process server.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan struct{}
}

// startServer builds the server, listens on a loopback port and returns
// once /healthz answers: the program's whole set-up.
func startServer(cfg serve.Config) (*liveServer, error) {
	s := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	ls := &liveServer{srv: s, hs: &http.Server{Handler: s.Handler()}, base: "http://" + ln.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(ls.served)
		ls.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get(ls.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		ls.stop()
		return nil, err
	}
	return ls, nil
}

func (ls *liveServer) stop() {
	ls.hs.Close()
	<-ls.served
	ls.srv.Close()
}

// getBody fetches u and returns the body of a 200 response.
func getBody(client *http.Client, u string) ([]byte, error) {
	resp, err := client.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%w: %s", statusError(resp.StatusCode), body)
	}
	return body, nil
}

// getJSON fetches u and decodes the JSON body of a 200 response into v.
func getJSON(client *http.Client, u string, v any) error {
	body, err := getBody(client, u)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// statusError is a non-200 HTTP status.
type statusError int

func (e statusError) Error() string { return fmt.Sprintf("status %d", int(e)) }

type analysisReply struct {
	Depth     int   `json:"depth"`
	Value     int   `json:"value"`
	Completed bool  `json:"completed"`
	ElapsedMS int64 `json:"elapsed_ms"`
}

func requestURL(base string, it *item, analyze bool) string {
	path := "/bestmove"
	if analyze {
		path = "/analyze"
	}
	q := url.Values{}
	q.Set("game", it.fam.name)
	q.Set("moves", movesString(it.moves))
	q.Set("depth", strconv.Itoa(it.depth))
	q.Set("budget_ms", strconv.Itoa(serveBudgetMS))
	return base + path + "?" + q.Encode()
}

// serverCounters are the server-side readings the serve layer reports,
// taken before and after the timed phase.
type serverCounters struct {
	hits, misses, coalesced float64
	admission               map[float64]float64 // cumulative admission-wait buckets by upper bound
	anomalies               float64
	fill, slots             float64
}

func readServer(client *http.Client, base string) (serverCounters, error) {
	var sc serverCounters
	var st struct {
		AnswerCache struct {
			Hits, Misses, Coalesced float64
		} `json:"answer_cache"`
	}
	if err := getJSON(client, base+"/stats", &st); err != nil {
		return sc, fmt.Errorf("stats: %w", err)
	}
	sc.hits, sc.misses, sc.coalesced = st.AnswerCache.Hits, st.AnswerCache.Misses, st.AnswerCache.Coalesced
	var hz struct {
		Anomalies float64 `json:"anomalies"`
		TT        struct {
			Fill, Len float64
		} `json:"tt"`
	}
	if err := getJSON(client, base+"/healthz", &hz); err != nil {
		return sc, fmt.Errorf("healthz: %w", err)
	}
	sc.anomalies, sc.fill, sc.slots = hz.Anomalies, hz.TT.Fill, hz.TT.Len
	text, err := getBody(client, base+"/metrics")
	if err != nil {
		return sc, fmt.Errorf("metrics: %w", err)
	}
	sc.admission = promBuckets(string(text), "engine_admission_wait_seconds")
	return sc, nil
}

func runServe(c *corpus, seconds, workers int, t *tracer) (*phase, error) {
	p := &phase{layer: map[string]float64{}}
	be, drv := "er", "aspiration"
	if t != nil {
		be, drv = tracedBackendName, tracedAspirationName
	}
	cfg := serveConfig(workers, be, drv)
	// As on mtdf, every repetition stays up until the last has started.
	var reps []*liveServer
	for r := 0; r < setupReps; r++ {
		runtime.GC()
		s := time.Now()
		ls, err := startServer(cfg)
		if err != nil {
			for _, x := range reps {
				x.stop()
			}
			return nil, err
		}
		p.setup = append(p.setup, time.Since(s).Seconds())
		reps = append(reps, ls)
	}
	for _, x := range reps[:len(reps)-1] {
		x.stop()
	}
	ls := reps[len(reps)-1]
	defer ls.stop()
	// One caller, so one kept-alive connection.
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	do := func(it *item, analyze bool) outcome {
		var rep analysisReply
		err := getJSON(client, requestURL(ls.base, it, analyze), &rep)
		return outcome{err: err, value: ertree.Value(rep.Value), full: err == nil && rep.Completed && rep.Depth == it.depth,
			elapsed: time.Duration(rep.ElapsedMS) * time.Millisecond}
	}
	// Warm-up: the hot set enters the answer cache under both endpoints,
	// and a few positions outside the timed inputs warm the search path.
	for i := 0; i < c.hot; i++ {
		for _, a := range []bool{false, true} {
			if o := do(&c.items[i], a); o.err != nil {
				return nil, fmt.Errorf("warm-up: %w", o.err)
			}
		}
	}
	for i := range c.warm {
		do(&c.warm[i], false)
	}
	before, err := readServer(client, ls.base)
	if err != nil {
		return nil, err
	}
	timed(p, func() (time.Time, []outcome) {
		if t != nil {
			active.Store(t)
			defer active.Store(nil)
		}
		start := time.Now()
		deadline := start.Add(time.Duration(seconds) * time.Second)
		var ops []outcome
		for _, q := range c.requests {
			if !time.Now().Before(deadline) {
				break
			}
			s := time.Now()
			o := do(&c.items[q.item], q.analyze)
			o.item, o.sent, o.done, o.hot = q.item, s, time.Now(), q.hot
			ops = append(ops, o)
		}
		return start, ops
	})
	after, err := readServer(client, ls.base)
	if err != nil {
		return nil, err
	}
	lookups := (after.hits - before.hits) + (after.misses - before.misses)
	if lookups > 0 {
		p.layer["serve.cache_hit_share"] = (after.hits - before.hits) / lookups
	}
	n := float64(len(p.ops))
	p.layer["serve.coalesced_share"] = (after.coalesced - before.coalesced) / n
	p.layer["obs.anomalies"] = after.anomalies - before.anomalies
	p.layer["tt.fill_share"] = after.fill / after.slots
	p.layer["engine.admission_wait_ms_p90"] = 1000 * admissionP90(before.admission, after.admission)
	var shed float64
	for _, o := range p.ops {
		var se statusError
		if errors.As(o.err, &se) && int(se) == http.StatusServiceUnavailable {
			shed++
		}
	}
	p.layer["serve.shed_share"] = shed / n
	verify(p, c.items, workers)
	return p, nil
}

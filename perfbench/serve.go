package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ios"
	"ios/internal/blockcache"
	"ios/internal/measure"
	"ios/internal/serve"
)

const (
	// sampleEvery: about one successful response in sampleEvery is kept
	// for the deep check (reload and re-measure) after timing.
	sampleEvery = 64
	// maxSamples bounds the kept responses per client.
	maxSamples = 8
	// opHeader carries a traced request's op id, parent span and lane to
	// the handler wrapper.
	opHeader = "X-Perfbench-Op"
)

// timedHandler wraps the server to time each request inside
// Server.ServeHTTP; in a traced phase it also records the span.
type timedHandler struct {
	next http.Handler
	tr   atomic.Pointer[tracer]
	mu   sync.Mutex
	durs []time.Duration // guarded by mu
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(start)
	h.mu.Lock()
	h.durs = append(h.durs, d)
	h.mu.Unlock()
	if tr := h.tr.Load(); tr != nil {
		var op, parent int64
		var lane int
		fmt.Sscanf(r.Header.Get(opHeader), "%d,%d,%d", &op, &parent, &lane)
		at := start.Sub(tr.epoch)
		tr.add(span{Name: "serve.handler", ID: tr.nextID.Add(1), Parent: parent, Op: op, Lane: lane, Start: at, End: at + d})
	}
}

// take returns the handler times recorded since the last call.
func (h *timedHandler) take() []time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	d := h.durs
	h.durs = nil
	return d
}

// serveEnv is one server on a loopback listener plus its client.
type serveEnv struct {
	srv *ios.Server
	h   *timedHandler
	hs  *http.Server
	wg  sync.WaitGroup
	tr  *http.Transport
	hc  *http.Client
	url string
}

// freshConfig gives a server caches of the default sizes that no other
// server shares, so each set-up starts cold.
func freshConfig() ios.ServerConfig {
	return ios.ServerConfig{
		MeasureCache: measure.NewCacheSize(serve.DefaultMeasureCacheSize),
		BlockCache:   blockcache.NewCacheSize(serve.DefaultBlockCacheSize),
	}
}

func startServer(cfg ios.ServerConfig, nconns int) (*serveEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := ios.NewServer(cfg)
	e := &serveEnv{srv: srv, h: &timedHandler{next: srv}}
	e.hs = &http.Server{Handler: e.h, ReadHeaderTimeout: 10 * time.Second}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	e.tr = &http.Transport{MaxIdleConnsPerHost: nconns, MaxConnsPerHost: nconns, DisableCompression: true}
	e.hc = &http.Client{Transport: e.tr}
	e.url = "http://" + ln.Addr().String() + "/optimize"
	return e, nil
}

// close stops the server and waits until its serving goroutine is gone.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // past the timeout, Close below drops what is left
	_ = e.hs.Close()
	e.tr.CloseIdleConnections()
	e.wg.Wait()
}

// post sends one /optimize body and reads the whole response into buf.
func (e *serveEnv) post(ctx context.Context, body []byte, traceHdr string, buf *bytes.Buffer) (int, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceHdr != "" {
		req.Header.Set(opHeader, traceHdr)
	}
	t0 := time.Now()
	resp, err := e.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(t0), err
}

// respFields are the response fields every op checks.
type respFields struct {
	model     string
	cached    bool
	latencyMS float64
}

// peekFields decodes the leading fields of an /optimize response without
// decoding the schedule that follows them.
func peekFields(body []byte) (respFields, error) {
	var f respFields
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return f, fmt.Errorf("response is not a JSON object")
	}
	found := 0
	for dec.More() && found < 3 {
		tok, err := dec.Token()
		if err != nil {
			return f, err
		}
		var dst any = new(json.RawMessage)
		switch tok {
		case "model":
			dst, found = &f.model, found+1
		case "cached":
			dst, found = &f.cached, found+1
		case "latency_ms":
			dst, found = &f.latencyMS, found+1
		}
		if err := dec.Decode(dst); err != nil {
			return f, err
		}
	}
	if found < 3 {
		return f, fmt.Errorf("response lacks model, cached or latency_ms")
	}
	return f, nil
}

// checkResponse is the check every op gets.
func checkResponse(status int, body []byte, req request, novel bool, wantLat float64) error {
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", status, truncate(body))
	}
	f, err := peekFields(body)
	if err != nil {
		return err
	}
	switch {
	case f.cached == novel:
		return fmt.Errorf("%s: cached=%v", req.arch, f.cached)
	case f.latencyMS != wantLat:
		return fmt.Errorf("%s: latency_ms %v, want %v", req.arch, f.latencyMS, wantLat)
	case novel && !strings.HasPrefix(f.model, "graph:"):
		return fmt.Errorf("%s: model %q for a submitted graph", req.arch, f.model)
	case !novel && f.model != req.arch:
		return fmt.Errorf("model %q, want %q", f.model, req.arch)
	}
	return nil
}

func truncate(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 160 {
		s = s[:160] + "..."
	}
	return s
}

// sample is a response kept for the deep check.
type sample struct {
	req  request
	resp []byte
}

// loopStats is what one closed-loop phase measured.
type loopStats struct {
	rtts     []time.Duration
	handler  []time.Duration
	ok, fail int
	errs     []string
	samples  []sample
	elapsed  time.Duration
	rt       rtDelta
	cache    ios.CacheStats
	blocks   blockcache.Stats
	measure  measure.Stats
}

// tracedLoop carries what a traced phase needs per request.
type tracedLoop struct {
	tr        *tracer
	replayers []*replayer
	nextOp    atomic.Int64
}

// closedLoop runs one client per CPU, each on its own keep-alive
// connection and sending its next request once the previous reply is in,
// until d has passed.
func closedLoop(ctx context.Context, c *config, e *serveEnv, gen generator, seed int64, d time.Duration, tl *tracedLoop) loopStats {
	e.h.take()
	cs0, bs0, ms0 := e.srv.Cache().Stats(), e.srv.BlockCache().Stats(), e.srv.MeasureCache().Stats()
	rt0 := sampleRuntime()
	per := make([]loopStats, c.nproc)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := range per {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			per[i] = client(ctx, e, gen, c.exp.LatencyMS, rand.New(rand.NewSource(seed*7919+int64(i))), deadline, i, tl)
		}(i)
	}
	wg.Wait()
	rt1 := sampleRuntime()
	var out loopStats
	for _, p := range per {
		out.rtts = append(out.rtts, p.rtts...)
		out.ok += p.ok
		out.fail += p.fail
		out.errs = append(out.errs, p.errs...)
		out.samples = append(out.samples, p.samples...)
	}
	out.handler = e.h.take()
	out.rt = rt0.to(rt1)
	out.elapsed = out.rt.wall
	cs1, bs1, ms1 := e.srv.Cache().Stats(), e.srv.BlockCache().Stats(), e.srv.MeasureCache().Stats()
	out.cache = ios.CacheStats{Hits: cs1.Hits - cs0.Hits, Misses: cs1.Misses - cs0.Misses, Evictions: cs1.Evictions - cs0.Evictions}
	out.blocks = blockcache.Stats{Misses: bs1.Misses - bs0.Misses, Hits: bs1.Saved() - bs0.Saved()}
	out.measure = measure.Stats{Misses: ms1.Misses - ms0.Misses, Hits: ms1.Saved() - ms0.Saved()}
	return out
}

// client is one closed-loop connection.
func client(ctx context.Context, e *serveEnv, gen generator, want map[string]float64, rng *rand.Rand, deadline time.Time, id int, tl *tracedLoop) loopStats {
	var st loopStats
	var buf bytes.Buffer
	novel := gen.novel()
	for time.Now().Before(deadline) && ctx.Err() == nil {
		req := gen.next(rng)
		var hdr string
		var root *open
		if tl != nil {
			root = tl.tr.start("http.round_trip", nil, tl.nextOp.Add(1), 1+id)
			hdr = fmt.Sprintf("%d,%d,%d", root.s.Op, root.s.ID, 100+id)
		}
		status, rtt, err := e.post(ctx, req.body, hdr, &buf)
		if root != nil {
			root.end()
		}
		if err == nil {
			err = checkResponse(status, buf.Bytes(), req, novel, want[req.arch])
		}
		if err == nil && tl != nil {
			err = tl.replayers[id].replay(ctx, tl.tr, root.s.Op, 200+id, req.arch, gen.replayBody(req))
		}
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			st.fail++
			if len(st.errs) < 5 {
				st.errs = append(st.errs, err.Error())
			}
			continue
		}
		st.ok++
		st.rtts = append(st.rtts, rtt)
		if rng.Intn(sampleEvery) == 0 && len(st.samples) < maxSamples {
			st.samples = append(st.samples, sample{req: req, resp: append([]byte(nil), buf.Bytes()...)})
		}
	}
	return st
}

// deepCheck reloads a sampled response's schedule onto the request's
// graph and re-measures it.
func deepCheck(ctx context.Context, eng *ios.Engine, s sample, novel bool) error {
	var resp ios.OptimizeResponse
	if err := json.Unmarshal(s.resp, &resp); err != nil {
		return err
	}
	g, err := requestGraph(s.req, novel)
	if err != nil {
		return err
	}
	sched, err := ios.LoadSchedule(resp.Schedule, g)
	if err != nil {
		return err
	}
	if err := sched.Validate(); err != nil {
		return err
	}
	lat, err := eng.Measure(ctx, g, sched)
	if err != nil {
		return err
	}
	if 1e3*lat != resp.LatencyMS {
		return fmt.Errorf("%s: schedule re-measures to %v ms, response says %v", s.req.arch, 1e3*lat, resp.LatencyMS)
	}
	return nil
}

// setupServe starts the server repeatedly (see moreSetups), each time
// from cold caches, and keeps the last one.
func setupServe(ctx context.Context, c *config, gen generator) (*serveEnv, []time.Duration, error) {
	var env *serveEnv
	var times []time.Duration
	for start := time.Now(); moreSetups(times, start); {
		if env != nil {
			// Drop the last server before collecting, so its caches go.
			env.close()
			env = nil
			settle()
		}
		t0 := time.Now()
		var err error
		if env, err = startServer(freshConfig(), c.nproc); err != nil {
			return nil, nil, err
		}
		if err := gen.warm(ctx, env, c.exp.LatencyMS); err != nil {
			env.close()
			return nil, nil, err
		}
		times = append(times, time.Since(t0))
	}
	return env, times, nil
}

func runServe(ctx context.Context, c *config, novel bool) (*outcome, error) {
	var gen generator
	var err error
	if novel {
		gen, err = newNovelGen(c.seed)
	} else {
		gen, err = newWarmGen()
	}
	if err != nil {
		return nil, err
	}
	startup := time.Since(launched())
	env, setups, err := setupServe(ctx, c, gen)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer env.close()
	o := newOutcome()
	o.metrics["setup_s"] = setupSeconds(startup, setups)
	// An untimed second of traffic lets connections, buffers and the GC
	// pacer reach their steady state before anything is timed.
	wu := closedLoop(ctx, c, env, gen, c.seed+2, warmup, nil)
	o.account(wu)
	settle()

	if c.trace {
		if err := serveTraced(ctx, c, env, gen, wu.samples, o); err != nil {
			return nil, err
		}
	} else {
		ls := closedLoop(ctx, c, env, gen, c.seed, c.seconds, nil)
		o.metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		o.account(ls)
		o.opTimes(ls.rtts, float64(ls.ok)/ls.elapsed.Seconds())
		o.metrics["optimize_s"] = metric{median(seconds(ls.handler)), "s"}
		o.metrics["optimize_cpu_s"] = metric{ratio(ls.rt.cpu.Seconds(), float64(ls.ok)), "s"}
		o.notef("%d closed-loop clients; optimize_s is the median of %d handler times", c.nproc, len(ls.handler))
		o.deepChecks(ctx, append(wu.samples, ls.samples...), novel)
	}
	if novel {
		runProbes(ctx, c, gen.(*novelGen), o)
	}
	return o, nil
}

// account adds a phase's ops to the outcome.
func (o *outcome) account(ls loopStats) {
	o.attempted += ls.ok + ls.fail
	o.failed += ls.fail
	for _, e := range ls.errs {
		o.problem("%s", e)
	}
}

func (o *outcome) deepChecks(ctx context.Context, samples []sample, novel bool) {
	eng := ios.NewEngine(ios.V100, ios.WithMeasureCache(nil))
	for _, s := range samples {
		if err := deepCheck(ctx, eng, s, novel); err != nil {
			o.fail("deep check: %v", err)
		}
	}
	o.notef("%d sampled responses reloaded and re-measured", len(samples))
}

// serveTraced runs an untraced phase and then a traced one of the same
// length, each half the run.
func serveTraced(ctx context.Context, c *config, env *serveEnv, gen generator, samples []sample, o *outcome) error {
	half := c.seconds / 2
	plain := closedLoop(ctx, c, env, gen, c.seed, half, nil)
	o.account(plain)

	tr := newTracer()
	tl := &tracedLoop{tr: tr}
	be := newTimedBackend(ios.V100)
	var searched searchCounts
	for i := 0; i < c.nproc; i++ {
		tl.replayers = append(tl.replayers, &replayer{srv: env.srv, be: be.Fork().(*timedBackend), searched: &searched, want: c.exp.LatencyMS, novel: gen.novel()})
	}
	env.h.tr.Store(tr)
	traced := closedLoop(ctx, c, env, gen, c.seed+1, half, tl)
	env.h.tr.Store(nil)
	o.account(traced)
	o.deepChecks(ctx, append(append(samples, plain.samples...), traced.samples...), gen.novel())

	m := o.metrics
	n := float64(plain.ok)
	perReq := func(v int64) float64 { return ratio(float64(v), n) }
	m["serve.cache.hits"] = metric{perReq(plain.cache.Hits), "count"}
	m["serve.cache.misses"] = metric{perReq(plain.cache.Misses), "count"}
	m["serve.cache.evictions"] = metric{perReq(plain.cache.Evictions), "count"}
	m["blockcache.searches"] = metric{perReq(plain.blocks.Misses), "count"}
	m["blockcache.saved"] = metric{perReq(plain.blocks.Hits), "count"}
	m["measure.misses"] = metric{perReq(plain.measure.Misses), "count"}
	m["measure.saved"] = metric{perReq(plain.measure.Hits), "count"}
	m["measure.saved_share"] = metric{ratio(float64(plain.measure.Hits), float64(plain.measure.Hits+plain.measure.Misses)), "ratio"}
	goLayer(plain.rt, plain.ok, m)

	spans := tr.snapshot()
	byOp := totalsByOp(spans)
	replayed := float64(traced.ok)
	m["core.states"] = metric{ratio(float64(searched.states.Load()), replayed), "count"}
	m["core.transitions"] = metric{ratio(float64(searched.transitions.Load()), replayed), "count"}
	runs, busy := be.c.runs.Load(), time.Duration(be.c.busy.Load())
	m["gpusim.runs"] = metric{ratio(float64(runs), replayed), "count"}
	m["gpusim.busy_s"] = metric{ratio(busy.Seconds(), replayed), "s"}
	m["gpusim.run_us"] = metric{1e6 * ratio(busy.Seconds(), float64(runs)), "us"}

	// Each traced request has a round trip, a handler and a replay span.
	var ops []opTotals
	for _, t := range byOp {
		if t.sum["serve.replay"] > 0 && t.sum["serve.handler"] > 0 {
			ops = append(ops, t)
		}
	}
	medianOf := func(f func(opTotals) float64) float64 {
		xs := make([]float64, len(ops))
		for i, t := range ops {
			xs[i] = f(t)
		}
		return median(xs)
	}
	perOp := func(name string, scale float64, f func(opTotals) float64) {
		m[name] = metric{scale * medianOf(f), unitOf(name)}
	}
	sum := func(name string) func(opTotals) float64 {
		return func(t opTotals) float64 { return t.sum[name].Seconds() }
	}
	perOp("serve.handler_us", 1e6, sum("serve.handler"))
	perOp("http.transport_us", 1e6, func(t opTotals) float64 {
		return (t.sum["http.round_trip"] - t.sum["serve.handler"]).Seconds()
	})
	for _, l := range []struct {
		metric, span string
		scale        float64
	}{
		{"serve.decode_us", "serve.decode", 1e6},
		{"serve.encode_us", "serve.encode", 1e6},
		{"serve.cache.lookup_us", "serve.cache.lookup", 1e6},
		{"graph.from_json_us", "graph.from_json", 1e6},
		{"graph.fingerprint_us", "graph.fingerprint", 1e6},
		{"graph.partition_us", "graph.partition", 1e6},
		{"blockcache.fingerprint_ms", "blockcache.fingerprint", 1e3},
		{"blockcache.rebind_us", "blockcache.rebind", 1e6},
		{"core.search_s", "core.search", 1},
		{"profile.prelower_ms", "profile.prelower", 1e3},
		{"profile.measure_schedule_us", "profile.measure_schedule", 1e6},
		{"schedule.marshal_us", "schedule.marshal", 1e6},
	} {
		perOp(l.metric, l.scale, sum(l.span))
	}
	perOp("core.critical_s", 1, func(t opTotals) float64 { return t.max["core.search"].Seconds() })
	m["core.self_s"] = metric{m["core.search_s"].Value - m["gpusim.busy_s"].Value, "s"}

	plainRTT := median(seconds(plain.rtts))
	m["bench.trace_overhead"] = metric{ratio(median(seconds(traced.rtts)), plainRTT), "ratio"}
	steps := func(t opTotals) float64 {
		return (t.sum["serve.decode"] + t.sum["serve.resolve"] + t.sum["serve.cache.lookup"] + t.sum["serve.encode"]).Seconds()
	}
	gap := medianOf(func(t opTotals) float64 { return t.sum["serve.handler"].Seconds() - steps(t) })
	m["bench.uncovered_share"] = metric{ratio(gap, plainRTT), "ratio"}
	o.notef("%d untraced and %d traced requests; per-layer times are per-request medians", plain.ok, traced.ok)
	return writeTrace(c, tr)
}

// runProbes sends each architecture whose graph JSON loses the builder's
// block cuts once to a server with a deadline. They show the known defect
// and are reported apart from the workload's ops.
func runProbes(ctx context.Context, c *config, gen *novelGen, o *outcome) {
	env, err := startServer(ios.ServerConfig{
		MeasureCache: measure.NewCache(), BlockCache: blockcache.NewCache(),
		Deadline: probeDeadline,
	}, 1)
	if err != nil {
		o.problem("probe server: %v", err)
		return
	}
	defer env.close()
	var buf bytes.Buffer
	for _, p := range gen.probes {
		req := request{arch: p.arch, body: gen.instance(p)}
		status, _, err := env.post(ctx, req.body, "", &buf)
		if err == nil {
			err = checkResponse(status, buf.Bytes(), req, true, c.exp.LatencyMS[p.arch])
		}
		switch {
		case errors.Is(err, context.Canceled):
			return
		case err != nil:
			o.notef("probe %s (graph JSON, %v deadline) failed its check, as the known graph-JSON defect predicts: %v [%s]", p.arch, probeDeadline, err, p.cuts)
		default:
			o.notef("probe %s passed: the graph-JSON block-cut defect no longer shows; move %s into the novel_graphs mix", p.arch, p.arch)
		}
	}
}

// warmup is the untimed closed-loop phase before timing.
const warmup = time.Second

// probeDeadline bounds the probe server's searches.
const probeDeadline = 2 * time.Second

package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"ios"
	"ios/internal/blockcache"
	"ios/internal/core"
	"ios/internal/measure"
	"ios/internal/models"
	"ios/internal/profile"
)

// coldExpect is the committed outcome of one cold Optimize.
type coldExpect struct {
	LatencyMS     float64 `json:"latency_ms"`
	States        int     `json:"states"`
	Transitions   int     `json:"transitions"`
	Measurements  int     `json:"measurements"`
	BlockSearches int64   `json:"block_searches"`
	BlockSaved    int64   `json:"block_saved"`
	MeasureMisses int64   `json:"measure_misses"`
	MeasureSaved  int64   `json:"measure_saved"`
}

// coldResult is what one untraced cold op produced.
type coldResult struct {
	wall, cpu time.Duration
	res       *ios.Result
	latency   float64
	blocks    ios.BlockCacheStats
	measure   ios.MeasureCacheStats
}

// coldOp runs one cold Engine.Optimize with fresh measurement and block
// caches, then measures the schedule outside the timed span. Callers
// settle the heap first, so every op starts from the same state.
func coldOp(ctx context.Context, g *ios.Graph, workers int) (coldResult, error) {
	eng := ios.NewEngine(ios.V100, ios.WithMeasureCache(nil), ios.WithBlockCache(nil), ios.WithWorkers(workers))
	c0, t0 := cpuTime(), time.Now()
	res, err := eng.Optimize(ctx, g, ios.Options{})
	out := coldResult{wall: time.Since(t0), cpu: cpuTime() - c0, res: res}
	if err != nil {
		return out, err
	}
	out.blocks, out.measure = eng.BlockCacheStats(), eng.MeasureCacheStats()
	out.latency, err = eng.Measure(ctx, g, res.Schedule)
	return out, err
}

// checkCold compares a cold op's output with the committed values.
func checkCold(r coldResult, want coldExpect) error {
	if err := r.res.Schedule.Validate(); err != nil {
		return fmt.Errorf("invalid schedule: %w", err)
	}
	st := r.res.Stats
	got := coldExpect{
		LatencyMS: 1e3 * r.latency, States: st.States, Transitions: st.Transitions,
		Measurements: st.Measurements, BlockSearches: r.blocks.Misses, BlockSaved: r.blocks.Saved(),
		MeasureMisses: r.measure.Misses, MeasureSaved: r.measure.Saved(),
	}
	if got != want {
		return fmt.Errorf("got %+v, want %+v", got, want)
	}
	return nil
}

func runCold(ctx context.Context, c *config, model string) (*outcome, error) {
	want, ok := c.exp.Cold[model]
	if !ok {
		return nil, fmt.Errorf("no expected values for %s", model)
	}
	entry, ok := models.EntryByName(model)
	if !ok {
		return nil, fmt.Errorf("unknown model %s", model)
	}
	// Set-up builds the network and checks its partition; it is repeated
	// so setup_s is a median.
	startup := time.Since(launched())
	var g *ios.Graph
	var setups []time.Duration
	for start := time.Now(); moreSetups(setups, start); {
		t0 := time.Now()
		g = entry.Build(1)
		if _, err := g.Partition(0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}

	o := newOutcome()
	o.metrics["setup_s"] = setupSeconds(startup, setups)
	if c.trace {
		return o, coldTraced(ctx, c, g, want, o)
	}
	var walls, cpus []time.Duration
	deadline := time.Now().Add(c.seconds)
	for (o.attempted == 0 || time.Now().Before(deadline)) && ctx.Err() == nil {
		settle()
		r, err := coldOp(ctx, g, c.nproc)
		o.attempted++
		if err == nil {
			err = checkCold(r, want)
		}
		if err != nil {
			o.fail("cold op %d: %v", o.attempted, err)
			continue
		}
		walls = append(walls, r.wall)
		cpus = append(cpus, r.cpu)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o.metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	var busy time.Duration
	for _, w := range walls {
		busy += w
	}
	o.opTimes(walls, ratio(float64(len(walls)), busy.Seconds()))
	o.metrics["optimize_s"] = metric{median(seconds(walls)), "s"}
	o.metrics["optimize_cpu_s"] = metric{median(seconds(cpus)), "s"}
	o.notef("optimize_s and optimize_cpu_s are medians of %d ops", len(walls))
	return o, nil
}

// coldTraced alternates untraced ops with traced replays of the same
// search and derives the per-layer metrics from the replays.
func coldTraced(ctx context.Context, c *config, g *ios.Graph, want coldExpect, o *outcome) error {
	tr := newTracer()
	var plain []time.Duration
	var rt rtDelta
	deadline := time.Now().Add(c.seconds)
	var replays []coldReplay
	for (o.attempted == 0 || time.Now().Before(deadline)) && ctx.Err() == nil {
		settle()
		a := sampleRuntime()
		r, err := coldOp(ctx, g, c.nproc)
		b := sampleRuntime()
		o.attempted++
		if err == nil {
			err = checkCold(r, want)
		}
		if err != nil {
			o.fail("cold op %d: %v", o.attempted, err)
			continue
		}
		plain = append(plain, r.wall)
		rt.add(a.to(b))

		settle()
		o.attempted++
		rp, err := coldReplayOp(ctx, tr, int64(o.attempted), g, c.nproc)
		if err == nil {
			err = sameSearch(r, rp)
		}
		if err != nil {
			o.fail("traced op %d: %v", o.attempted, err)
			continue
		}
		replays = append(replays, rp)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(replays) == 0 {
		return nil // every op failed; the failures are reported
	}
	spans := tr.snapshot()
	byOp := totalsByOp(spans)
	m := o.metrics
	perOp := func(name string, scale float64, f func(coldReplay, opTotals) float64) {
		xs := make([]float64, len(replays))
		for i, rp := range replays {
			xs[i] = f(rp, byOp[rp.op]) * scale
		}
		m[name] = metric{median(xs), unitOf(name)}
	}
	sum := func(name string) func(coldReplay, opTotals) float64 {
		return func(_ coldReplay, t opTotals) float64 { return t.sum[name].Seconds() }
	}
	perOp("graph.partition_us", 1e6, sum("graph.partition"))
	perOp("profile.prelower_ms", 1e3, sum("profile.prelower"))
	perOp("blockcache.fingerprint_ms", 1e3, sum("blockcache.fingerprint"))
	perOp("blockcache.rebind_us", 1e6, sum("blockcache.rebind"))
	perOp("core.search_s", 1, sum("core.search"))
	perOp("core.critical_s", 1, func(_ coldReplay, t opTotals) float64 { return t.max["core.search"].Seconds() })
	perOp("core.self_s", 1, func(rp coldReplay, t opTotals) float64 {
		return t.sum["core.search"].Seconds() - rp.busy.Seconds()
	})
	perOp("gpusim.busy_s", 1, func(rp coldReplay, _ opTotals) float64 { return rp.busy.Seconds() })
	perOp("gpusim.run_us", 1e6, func(rp coldReplay, _ opTotals) float64 {
		return ratio(rp.busy.Seconds(), float64(rp.counts.runs))
	})
	// Deterministic counts: every replay must agree.
	last := replays[len(replays)-1]
	for _, rp := range replays {
		if rp.counts != last.counts {
			o.fail("replay counters differ between ops: %+v vs %+v", rp.counts, last.counts)
		}
	}
	cnt := last.counts
	cnt.report(m)
	if cnt.blockSearches != want.BlockSearches || cnt.blockSaved != want.BlockSaved ||
		cnt.measureMisses != want.MeasureMisses || cnt.measureSaved != want.MeasureSaved {
		o.fail("replay cache counters %+v disagree with the committed values", cnt)
	}

	// The go layer over the untraced ops only, so tracing does not count.
	goLayer(rt, len(plain), m)

	var traced, gaps []float64
	for _, rp := range replays {
		traced = append(traced, rp.root.dur().Seconds())
		gaps = append(gaps, uncovered(rp.root, spans).Seconds())
	}
	plainMed := median(seconds(plain))
	m["bench.trace_overhead"] = metric{ratio(median(traced), plainMed), "ratio"}
	m["bench.uncovered_share"] = metric{ratio(median(gaps), plainMed), "ratio"}
	return writeTrace(c, tr)
}

// replayCounts are the deterministic counters of one traced op.
type replayCounts struct {
	states, transitions, runs   int64
	blockSearches, blockSaved   int64
	measureMisses, measureSaved int64
}

func (c replayCounts) report(m map[string]metric) {
	m["core.states"] = metric{float64(c.states), "count"}
	m["core.transitions"] = metric{float64(c.transitions), "count"}
	m["gpusim.runs"] = metric{float64(c.runs), "count"}
	m["blockcache.searches"] = metric{float64(c.blockSearches), "count"}
	m["blockcache.saved"] = metric{float64(c.blockSaved), "count"}
	m["measure.misses"] = metric{float64(c.measureMisses), "count"}
	m["measure.saved"] = metric{float64(c.measureSaved), "count"}
	m["measure.saved_share"] = metric{ratio(float64(c.measureSaved), float64(c.measureSaved+c.measureMisses)), "ratio"}
}

func countsOf(searched *searchCounts, be *timedBackend, bc *blockcache.Cache, mc *measure.Cache) replayCounts {
	b, m := bc.Stats(), mc.Stats()
	return replayCounts{
		states: searched.states.Load(), transitions: searched.transitions.Load(), runs: be.c.runs.Load(),
		blockSearches: b.Misses, blockSaved: b.Saved(),
		measureMisses: m.Misses, measureSaved: m.Saved(),
	}
}

type coldReplay struct {
	op     int64
	root   span
	res    *ios.Result
	busy   time.Duration
	counts replayCounts
}

// coldReplayOp replays one cold Optimize through the public functions of
// each layer, on the same fresh caches and worker count as coldOp.
func coldReplayOp(ctx context.Context, tr *tracer, op int64, g *ios.Graph, workers int) (coldReplay, error) {
	be := newTimedBackend(ios.V100)
	root := profile.NewWithBackend(be, profile.Options{})
	mc, bc := measure.NewCache(), blockcache.NewCache()
	root.SetMeasureCache(mc)
	prof := root.Fork()
	var searched searchCounts

	sp := tr.start("cold.optimize", nil, op, 1)
	sched, stats, err := replayOptimize(ctx, sp, g, prof, core.Options{Workers: workers}, bc, &searched)
	sp.end()
	if err != nil {
		return coldReplay{}, err
	}
	busy := time.Duration(be.c.busy.Load())
	return coldReplay{
		op: op, root: sp.s,
		res:    &ios.Result{Schedule: sched, Stats: stats},
		busy:   busy,
		counts: countsOf(&searched, be, bc, mc),
	}, nil
}

// sameSearch checks that a traced replay returned exactly what the
// untraced op did.
func sameSearch(r coldResult, rp coldReplay) error {
	a, b := r.res.Stats, rp.res.Stats
	if a.Blocks != b.Blocks || a.States != b.States || a.Transitions != b.Transitions || a.Measurements != b.Measurements {
		return fmt.Errorf("replay stats %+v differ from the op's %+v", b, a)
	}
	ja, err := r.res.Schedule.MarshalJSON()
	if err != nil {
		return err
	}
	jb, err := rp.res.Schedule.MarshalJSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(ja, jb) {
		return fmt.Errorf("replay schedule differs from the op's")
	}
	return nil
}

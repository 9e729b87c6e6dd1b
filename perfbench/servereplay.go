package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"ios"
	"ios/internal/core"
	"ios/internal/graph"
	"ios/internal/models"
	"ios/internal/profile"
	"ios/internal/serve"
)

// replayer repeats, in process and under spans, what the server does for
// one /optimize request: decode, resolve, the schedule-cache lookup (and
// on a miss the search, both measurements and the marshal), and the
// response encode. It works on the server's own caches, so it sees the
// state the HTTP requests see. One replayer per client goroutine.
type replayer struct {
	srv      *ios.Server
	be       *timedBackend
	searched *searchCounts
	want     map[string]float64
	novel    bool
}

// serveOpts are the server's default search options (the paper's).
var serveOpts = core.Options{}.Canonical()

func (rp *replayer) replay(ctx context.Context, tr *tracer, op int64, lane int, arch string, body []byte) error {
	root := tr.start("serve.replay", nil, op, lane)
	defer root.end()

	sp := root.child("serve.decode")
	var req serve.OptimizeRequest
	err := json.Unmarshal(body, &req)
	sp.end()
	if err != nil {
		return err
	}
	sp = root.child("serve.resolve")
	key, build, err := rp.resolve(sp, req)
	sp.end()
	if err != nil {
		return err
	}
	sp = root.child("serve.cache.lookup")
	e, cached, err := rp.srv.Cache().GetOrCompute(ctx, key, func(ctx context.Context) (*serve.Entry, error) {
		g, err := build()
		if err != nil {
			return nil, err
		}
		return rp.compute(ctx, sp, g)
	})
	sp.end()
	if err != nil {
		return err
	}
	sp = root.child("serve.encode")
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(serve.OptimizeResponse{
		Model: key.Model, Device: ios.V100.Name, Batch: key.Batch, Options: key.Opts, Cached: cached,
		LatencyMS:    1e3 * e.Latency,
		SequentialMS: 1e3 * e.SequentialLatency,
		Speedup:      ratio(e.SequentialLatency, e.Latency),
		Throughput:   ratio(float64(key.Batch), e.Latency),
		Summary:      e.Summary,
		Schedule:     e.ScheduleJSON,
		Search: serve.SearchInfo{
			Blocks: e.Stats.Blocks, States: e.Stats.States, Transitions: e.Stats.Transitions,
			Measurements: e.Stats.Measurements, WallMS: float64(e.Stats.WallTime) / float64(time.Millisecond),
		},
	})
	sp.end()
	if err != nil {
		return err
	}
	if cached == rp.novel || 1e3*e.Latency != rp.want[arch] {
		return fmt.Errorf("replay of %s: cached=%v latency_ms %v, want %v", arch, cached, 1e3*e.Latency, rp.want[arch])
	}
	return nil
}

// resolve builds the cache key as the server does; for a submitted graph
// that means decoding, partitioning and fingerprinting it.
func (rp *replayer) resolve(parent *open, req serve.OptimizeRequest) (serve.Key, func() (*graph.Graph, error), error) {
	key := serve.Key{Batch: 1, Device: ios.V100.Name, Opts: serveOpts.Fingerprint()}
	if req.Model != "" {
		entry, ok := models.EntryByName(req.Model)
		if !ok {
			return key, nil, fmt.Errorf("unknown model %q", req.Model)
		}
		key.Model = entry.Name
		return key, func() (*graph.Graph, error) { return entry.Build(1), nil }, nil
	}
	sp := parent.child("graph.from_json")
	g, err := graph.FromJSON(req.Graph)
	sp.end()
	if err != nil {
		return key, nil, err
	}
	sp = parent.child("graph.partition")
	_, err = g.Partition(serveOpts.MaxBlockOps)
	sp.end()
	if err != nil {
		return key, nil, err
	}
	sp = parent.child("graph.fingerprint")
	fp, err := g.Fingerprint()
	sp.end()
	if err != nil {
		return key, nil, err
	}
	key.Model, key.Batch = "graph:"+fp, g.Batch()
	return key, func() (*graph.Graph, error) { return g, nil }, nil
}

// compute is the server's cache-miss path: search, measure the schedule
// and the sequential baseline, marshal.
func (rp *replayer) compute(ctx context.Context, parent *open, g *graph.Graph) (*serve.Entry, error) {
	prof := profile.NewWithBackend(rp.be, profile.Options{})
	prof.SetMeasureCache(rp.srv.MeasureCache())
	sp := parent.child("core.optimize")
	sched, stats, err := replayOptimize(ctx, sp, g, prof, serveOpts, rp.srv.BlockCache(), rp.searched)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = parent.child("profile.measure_schedule")
	lat, err := prof.MeasureSchedule(sched)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = parent.child("baseline.sequential")
	seq, err := ios.SequentialSchedule(g)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = parent.child("profile.measure_schedule")
	seqLat, err := prof.MeasureSchedule(seq)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = parent.child("schedule.marshal")
	js, err := sched.MarshalJSON()
	sp.end()
	if err != nil {
		return nil, err
	}
	return &serve.Entry{
		Graph: g, Schedule: sched, Stats: stats,
		Latency: lat, SequentialLatency: seqLat,
		ScheduleJSON: js, Summary: sched.Summarize(), ComputedAt: time.Now(),
	}, nil
}

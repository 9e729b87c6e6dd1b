package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ios"
	"ios/internal/blockcache"
	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/profile"
	"ios/internal/schedule"
)

// simCounters accumulates the simulator's work across every fork of one
// timed backend.
type simCounters struct {
	runs atomic.Int64
	busy atomic.Int64 // nanoseconds inside Backend.Run
}

// timedBackend decorates a measurement backend with a run count and busy
// time; forks keep the decorator and share the counters.
type timedBackend struct {
	inner ios.Backend
	c     *simCounters
}

func newTimedBackend(dev ios.Device) *timedBackend {
	return &timedBackend{inner: ios.NewSimBackend(dev), c: &simCounters{}}
}

func (b *timedBackend) Spec() gpusim.Spec { return b.inner.Spec() }

func (b *timedBackend) Run(streams []gpusim.Stream) gpusim.Result {
	t0 := time.Now()
	r := b.inner.Run(streams)
	b.c.busy.Add(int64(time.Since(t0)))
	b.c.runs.Add(1)
	return r
}

func (b *timedBackend) Fork() profile.Backend { return &timedBackend{inner: b.inner.Fork(), c: b.c} }

// searchCounts sums the DP work of the block searches a replay actually
// ran (block-cache hits excluded).
type searchCounts struct {
	states, transitions atomic.Int64
}

type blockOut struct {
	stages []schedule.Stage
	stats  core.Stats
	err    error
}

// replayOptimize repeats, step by step and each step under its own span,
// what core.OptimizeWithProgress does with a block cache attached:
// partition, prelower, then per block (concurrently, GOMAXPROCS at a time)
// fingerprint and claim, search on a forked profiler or rebind a cached
// entry, and commit. It returns the same schedule and statistics as the
// untraced call.
func replayOptimize(ctx context.Context, parent *open, g *graph.Graph, prof *profile.Profiler, opts core.Options, bc *blockcache.Cache, searched *searchCounts) (*schedule.Schedule, core.Stats, error) {
	opts = opts.Canonical()
	m0 := prof.Measurements

	sp := parent.child("graph.partition")
	blocks, err := g.Partition(opts.MaxBlockOps)
	sp.end()
	if err != nil {
		return nil, core.Stats{}, err
	}
	sp = parent.child("profile.prelower")
	prof.Prelower(g.SchedulableNodes())
	sp.end()

	fp := opts.Fingerprint()
	outs := make([]blockOut, len(blocks))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	all := parent.child("blocks")
	var wg sync.WaitGroup
	for i, b := range blocks {
		wg.Add(1)
		go func(i int, b *graph.Block) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				outs[i] = blockOut{err: err}
				return
			}
			outs[i] = replayBlock(ctx, all, b, prof.Fork(), opts, fp, bc, searched)
		}(i, b)
	}
	wg.Wait()
	all.end()
	if err := ctx.Err(); err != nil {
		return nil, core.Stats{}, err
	}

	sched := &schedule.Schedule{Graph: g}
	stats := core.Stats{Blocks: len(blocks)}
	for i, out := range outs {
		if out.err != nil {
			return nil, core.Stats{}, fmt.Errorf("block %d: %w", blocks[i].Index, out.err)
		}
		sched.Stages = append(sched.Stages, out.stages...)
		stats.States += out.stats.States
		stats.Transitions += out.stats.Transitions
		stats.Measurements += out.stats.Measurements
	}
	stats.Measurements += prof.Measurements - m0
	sp = parent.child("schedule.validate")
	err = sched.Validate()
	sp.end()
	if err != nil {
		return nil, core.Stats{}, err
	}
	return sched, stats, nil
}

func replayBlock(ctx context.Context, parent *open, b *graph.Block, bp *profile.Profiler, opts core.Options, fp string, bc *blockcache.Cache, searched *searchCounts) (out blockOut) {
	bs := parent.childLane("block", 1000+b.Index)
	defer bs.end()

	sp := bs.child("blockcache.fingerprint")
	key := blockcache.Fingerprint(b, bp, fp)
	sp.end()
	sp = bs.child("blockcache.get_or_begin")
	ent, claim, err := bc.GetOrBegin(ctx, key)
	sp.end()
	if err != nil {
		return blockOut{err: err}
	}
	if claim == nil {
		sp = bs.child("blockcache.rebind")
		stages, rerr := blockcache.Rebind(b, ent)
		sp.end()
		if rerr == nil {
			return blockOut{stages: stages, stats: core.Stats{States: ent.States, Transitions: ent.Transitions}}
		}
		// core falls back to an uncached search on an invalid entry; so
		// does the replay.
	} else {
		committed := false
		defer func() {
			if !committed {
				claim.Abandon()
			}
		}()
		defer func() {
			if out.err != nil {
				return
			}
			sp := bs.child("blockcache.commit")
			if cs, cerr := blockcache.Canonicalize(b, out.stages); cerr == nil {
				claim.Commit(&blockcache.Entry{Ops: len(b.Nodes), Stages: cs,
					States: out.stats.States, Transitions: out.stats.Transitions})
				committed = true
			}
			sp.end()
		}()
	}
	sp = bs.child("core.search")
	stages, st, err := core.OptimizeBlockContext(ctx, b, bp, opts)
	sp.end()
	searched.states.Add(int64(st.States))
	searched.transitions.Add(int64(st.Transitions))
	return blockOut{stages: stages, stats: st, err: err}
}

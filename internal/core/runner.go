package core

import (
	"context"
	"fmt"
	"time"

	"bgpc/internal/bipartite"
	"bgpc/internal/failpoint"
	"bgpc/internal/obs"
	"bgpc/internal/par"
)

// FPIterate is the failpoint probed at every speculative-iteration
// boundary of the BGPC runner: "cancel" behaves like a context expiry
// at the barrier (a no-op when the run has no deadline to watch),
// "delay" stalls between iterations, "err" aborts the run with an
// injected server-side error, and "panic" unwinds the calling
// goroutine (contained by serving layers that recover per job).
const FPIterate = "core.iterate"

// detectQueueShare sets when a vertex-based conflict phase after the
// first runs the detection pass (netMasks.detect), a walk of every net:
// when its queue holds at least 1/detectQueueShare of the vertices.
// Measured over whole runs of the four kernel presets (EXPERIMENTS.md,
// "Detection on every net"), 1/256 beats 1/16, 1/64 and 1/1024: later
// queues are hub-heavy, so on the skewed presets the pass pays for
// small queues, and on the regular ones a smaller share would run it on
// queues whose scans are cheaper. A vertex coloring phase after any
// conflict phase builds the masks from the same share up, since build
// walks the masked nets.
const detectQueueShare = 256

// Color runs the speculative parallel BGPC loop (Algorithm 1) with the
// phase schedule, scheduling parameters, and balancing Policy described
// by opts, and returns a valid partial coloring of g's VA vertices. On
// a bipartite.ClosedView it runs the D2GC loop of the paper's
// Section IV (Algorithms 9 and 10 are the net phases on that view); on
// a bipartite.OwnNetView its vertex-based schedules run D1GC.
//
// Iteration k uses net-based coloring while k ≤ opts.NetColorIters and
// net-based conflict removal while k ≤ opts.NetCRIters, then falls back
// to the vertex-based phases — exactly the paper's X-Y naming: V-N2 is
// {NetColorIters: 0, NetCRIters: 2}, N1-N2 is {1, 2}, and so on.
func Color(g *bipartite.Graph, opts Options) (*Result, error) {
	return ColorCtx(context.Background(), g, opts)
}

// ColorCtx is Color with cooperative cancellation. The parallel loops
// poll ctx (via a par.Canceler armed from it) at chunk-dispatch
// granularity, so a cancel or deadline expiry stops the run within one
// chunk's worth of work per thread rather than at the next iteration
// barrier. On cancellation it returns a non-nil *Result holding the
// best valid partial state — conflict removal is finished sequentially
// on the already-colored prefix, leaving the remaining vertices
// Uncolored — together with a *CancelError (matched by
// errors.Is(err, ErrCanceled)) carrying partial-progress statistics.
// Callers that need a complete coloring can pass the partial state to
// FinishSequential.
func ColorCtx(ctx context.Context, g *bipartite.Graph, opts Options) (*Result, error) {
	return colorCtx(ctx, g, opts, true)
}

// colorCtx is ColorCtx with the color masks switched on or off.
func colorCtx(ctx context.Context, g *bipartite.Graph, opts Options, masks bool) (*Result, error) {
	if err := opts.validate(g.NumVertices()); err != nil {
		return nil, err
	}
	// Request-scoped telemetry: a Recorder riding in ctx (installed by
	// the serving layer's ingress, or a CLI's -timeline flag) receives
	// each phase's trace event beside opts.Obs, and its dispatch stats
	// count the scheduler's chunk hand-outs; an Observer alone gets a
	// run-local count. One context lookup per run; the per-vertex hot
	// paths never see it.
	rec := obs.RecorderFromContext(ctx)
	opts.stats = rec.LoopStats()
	if opts.stats == nil && opts.Obs.Enabled() {
		opts.stats = new(obs.LoopStats)
	}
	start := time.Now()
	var cn *par.Canceler
	if ctx != nil && ctx.Done() != nil {
		cn = par.NewCanceler()
		stop := cn.WatchContext(ctx)
		defer stop()
	}
	n := g.NumVertices()
	threads := opts.threads()
	c := NewColors(n)
	wc := NewWorkCounters(threads)
	scr := newScratch(g, threads, opts.Balance)
	// The masks serve first fit on a graph with a large net (hasRows),
	// under BalanceNone. A vertex phase whose queue is all Uncolored
	// (fresh), the first iteration's or one after a net-based conflict
	// removal, publishes into them; the latter rebuilds them from the
	// colors first. After a vertex-based removal they are built from the
	// colors outside the queue, and the phase publishes nothing. A build
	// walks every masked net, so after either removal the masks serve
	// only a queue large enough to pay for that walk (detectQueueShare);
	// a smaller one is scanned. Their flag array serves vertex-based
	// conflict detection on sorted nets, under every balancing policy.
	// They are taken from the pool when a phase first needs them.
	var m *netMasks
	defer func() { m.release() }()
	detect := masks && g.SortedNets()
	colorMasks := masks && opts.Balance == BalanceNone && hasRows(g)
	fresh := true
	// Iteration 1 colors W in ascending order from all Uncolored, so on
	// sorted nets its vertex phase stops the scans at the dispatch
	// frontier.
	natural := opts.Order == nil && g.SortedNets()

	// Build the initial work queue. Vertices incident to no net cannot
	// conflict; they take color 0 immediately (as first-fit would) and
	// never enter the queue, which keeps the net-based phases' gather
	// step (that only sees vertices reachable through nets) sound.
	W := make([]int32, 0, n)
	appendVertex := func(u int32) {
		if g.VtxDeg(u) == 0 {
			c.Set(u, 0)
		} else {
			W = append(W, u)
		}
	}
	if opts.Order == nil {
		for u := int32(0); int(u) < n; u++ {
			appendVertex(u)
		}
	} else {
		for _, u := range opts.Order {
			appendVertex(u)
		}
	}

	// Queues for the vertex-based conflict removal.
	var shared *par.SharedQueue
	var local *par.LocalQueues
	if opts.LazyQueues {
		local = par.NewLocalQueues(threads, len(W))
	} else {
		shared = par.NewSharedQueue(len(W))
	}
	var wnext []int32 // reused buffer for the lazy merge

	tr := opts.Obs
	emit := tr.Enabled() || rec != nil
	var netColor, netCR bool
	var iter int
	doColor := func() {
		front := natural && iter == 1
		switch {
		case netColor:
			colorNetPhase(g, c, scr, &opts, wc, cn)
		case colorMasks && fresh && (iter == 1 || detectQueueShare*len(W) >= n):
			takeMasks(&m, g, threads)
			if iter > 1 {
				m.build(g, c, nil, &opts, cn)
			}
			colorVertexPhase(g, W, c, scr, m, false, front, &opts, wc, cn)
		case colorMasks && !fresh && detectQueueShare*len(W) >= n:
			takeMasks(&m, g, threads).build(g, c, W, &opts, cn)
			colorVertexPhase(g, W, c, scr, m, true, false, &opts, wc, cn)
		default:
			colorVertexPhase(g, W, c, scr, nil, false, front, &opts, wc, cn)
		}
	}
	doConflict := func() {
		fresh = netCR
		if netCR {
			conflictNetPhase(g, c, scr, &opts, wc, cn)
			W = gatherUncolored(g, c, &opts)
			return
		}
		// Detection walks every net once, so it runs when the queue
		// holds every non-isolated vertex (iteration 1) or enough of the
		// rest to pay for that walk.
		var flags *netMasks
		if detect && (iter == 1 || detectQueueShare*len(W) >= n) {
			flags = takeMasks(&m, g, threads)
			flags.detect(g, c, scr, &opts, cn)
		}
		if opts.LazyQueues {
			local.Reset()
			conflictVertexPhase(g, W, c, flags, nil, local, &opts, wc, cn)
			wnext = local.MergeInto(wnext)
			W = append(W[:0], wnext...)
		} else {
			shared.Reset()
			conflictVertexPhase(g, W, c, flags, shared, nil, &opts, wc, cn)
			W = append(W[:0], shared.Items()...)
		}
	}

	res := &Result{Iterations: 0}
	maxIters := opts.maxIters()
	for iter = 1; len(W) > 0; iter++ {
		if iter > maxIters {
			return nil, fmt.Errorf("core: %w after %d iterations (%d vertices still queued)", ErrNoFixedPoint, maxIters, len(W))
		}
		if err := failpoint.Inject(FPIterate); err != nil {
			if failpoint.IsCancel(err) {
				cn.Cancel()
			} else {
				return nil, fmt.Errorf("core: %w", err)
			}
		}
		if cn.Canceled() {
			res.Time = time.Since(start)
			return cancelResult(g, c, &scr[0].forb, res, ctx.Err())
		}
		res.Iterations = iter
		netColor = iter <= opts.NetColorIters
		netCR = iter <= opts.NetCRIters

		it := IterStats{QueueLen: len(W), NetColoring: netColor, NetCR: netCR}
		colorItems := len(W)
		if netColor {
			colorItems = g.NumNets()
		}

		t0 := time.Now()
		doColor()
		it.ColoringTime = time.Since(t0)
		it.ColoringWork, it.ColoringMaxWork = wc.TotalAndMax()
		if emit {
			emitPhaseEvent(tr, rec, &opts, scr, iter, obs.PhaseColor, netColor,
				colorItems, 0, c, it.ColoringTime, it.ColoringWork, it.ColoringMaxWork)
		}
		if cn.Canceled() {
			res.ColoringTime += it.ColoringTime
			res.Time = time.Since(start)
			return cancelResult(g, c, &scr[0].forb, res, ctx.Err())
		}

		conflictItems := len(W)
		if netCR {
			conflictItems = g.NumNets()
		}
		t1 := time.Now()
		doConflict()
		it.ConflictTime = time.Since(t1)
		it.ConflictWork, it.ConflictMaxWork = wc.TotalAndMax()
		it.Conflicts = len(W)
		if emit {
			emitPhaseEvent(tr, rec, &opts, scr, iter, obs.PhaseConflict, netCR,
				conflictItems, it.Conflicts, c, it.ConflictTime, it.ConflictWork, it.ConflictMaxWork)
		}
		if cn.Canceled() {
			// An interrupted conflict phase may have produced a
			// truncated work queue; discard it and repair from colors.
			res.ColoringTime += it.ColoringTime
			res.ConflictTime += it.ConflictTime
			res.Time = time.Since(start)
			return cancelResult(g, c, &scr[0].forb, res, ctx.Err())
		}

		res.ColoringTime += it.ColoringTime
		res.ConflictTime += it.ConflictTime
		res.TotalWork += it.ColoringWork + it.ConflictWork
		res.CriticalWork += it.ColoringMaxWork + it.ConflictMaxWork
		if opts.CollectPerIteration {
			res.Iters = append(res.Iters, it)
		}
	}

	res.Colors = c.Raw()
	res.Time = time.Since(start)
	res.countColors(&scr[0].forb)
	return res, nil
}

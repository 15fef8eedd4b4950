package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/denoise"
	"repro/internal/failpoint"
	"repro/internal/geom"
	"repro/internal/img"
	"repro/internal/layout"
	"repro/internal/netex"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/register"
	"repro/internal/sem"
	"repro/internal/volume"
)

// streamSource produces the raw slice stack in ascending index order,
// calling emit once per slice. The producer owns nothing after emit
// returns; emitted images are never mutated downstream, so a source may
// emit long-lived slices (acq.Slices) by pointer.
type streamSource func(ctx context.Context, emit func(i int, g *img.Gray) error) error

// streamAcqSource adapts a materialized acquisition into a stream
// source, checking the context between slices.
func streamAcqSource(acq *sem.Acquisition) streamSource {
	return func(ctx context.Context, emit func(int, *img.Gray) error) error {
		for i, g := range acq.Slices {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := emit(i, g); err != nil {
				return err
			}
		}
		return nil
	}
}

// denoiseSliceInto is denoiseSlice writing into a caller-provided
// buffer of the source's dimensions, with per-worker scratch reuse. The
// caller has already rejected unknown denoiser names.
func denoiseSliceInto(ctx context.Context, dst, src *img.Gray, o Options, s *denoise.Scratch) error {
	den := o.Denoise
	if den.Obs == nil {
		den.Obs = o.Obs
	}
	switch o.Denoiser {
	case "split-bregman":
		return denoise.SplitBregmanInto(ctx, dst, src, den, s)
	case "none", "":
		copy(dst.Pix, src.Pix)
		return nil
	default: // "chambolle"
		return denoise.ChambolleInto(ctx, dst, src, den, s)
	}
}

// streamItem is one slice in flight between pipeline stages.
type streamItem struct {
	i int
	g *img.Gray
}

// streamCore is the bounded-memory screen + denoise engine: a feeder
// goroutine runs the source through the incremental quality gate, a
// fan-out of denoise workers pulls gated slices off a ring, denoises
// each into a pooled buffer (per-worker scratch, flat-field applied)
// and a reordering consumer hands them to consume in strict index
// order. Back-pressure is structural: the feeder takes one of window
// credits (2W+2 for W workers) before it releases a slice downstream,
// and the consumer returns the credit only when it hands that slice to
// consume. At most window slices are therefore in flight between the
// gate and consume — in the rings, at a worker, or parked in the
// reorder buffer waiting for a slower predecessor — so a slow consumer
// or a descheduled worker stalls the producer instead of letting
// slices pile up.
//
// consume owns each buffer it is handed (Put it back, keep it, or pass
// it on) — including on the call that returns an error. Buffers still
// in flight when the pipeline aborts are returned to the pool here.
//
// The output is byte-identical to the whole-stack reference for any
// worker count: the gate is sequential, each slice's denoise result
// depends only on that slice, and consume observes ascending order.
func streamCore(ctx context.Context, n int, src streamSource, dwellUS float64, o Options, pool *img.Pool,
	consume func(ctx context.Context, i int, g *img.Gray) error) (RepairReport, error) {
	ob := o.Obs
	W := par.Count(o.Workers)
	window := 2*W + 2
	ectx, cancel := context.WithCancel(ctx)
	defer cancel()
	var failOnce sync.Once
	var failErr error
	fail := func(err error) {
		failOnce.Do(func() {
			failErr = err
			cancel()
		})
	}

	credits := make(chan struct{}, window)
	gateCh := make(chan streamItem, window)
	denCh := make(chan streamItem, window)

	send := func(i int, g *img.Gray) error {
		select {
		case credits <- struct{}{}:
		case <-ectx.Done():
			return ectx.Err()
		}
		select {
		case gateCh <- streamItem{i, g}:
			return nil
		case <-ectx.Done():
			return ectx.Err()
		}
	}
	gateSp := ob.WithLaneOffset(1).StartSpan(StageQualityGate)
	gate := newGateStream(o, n, dwellUS, send)
	denSp := ob.WithLaneOffset(2).StartSpan(StageDenoise)

	// The feeder and the workers run under par.Call, so a panic in the
	// source, the gate or a denoiser fails the run like an error: the
	// context is cancelled and every pooled buffer still goes back. The
	// feeder runs the whole source, so its panics carry index -1.
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		defer close(gateCh)
		defer gateSp.End()
		err := par.Call(-1, func() error {
			if err := src(ectx, gate.push); err != nil {
				return err
			}
			return gate.finish()
		})
		if err != nil {
			fail(err)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < W; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := denSp.ChildWorker(fmt.Sprintf("%s/worker%d", StageDenoise, w), ob.Lane()+3+w)
			defer ws.End()
			scratch := &denoise.Scratch{}
			for item := range gateCh {
				dst := pool.Get(item.g.W, item.g.H)
				err := par.Call(item.i, func() error {
					if err := failpoint.Inject("core.denoise"); err != nil {
						return err
					}
					if err := denoiseSliceInto(ectx, dst, item.g, o, scratch); err != nil {
						return err
					}
					flatField(dst)
					return nil
				})
				if err != nil {
					pool.Put(dst)
					fail(fmt.Errorf("core: denoise slice %d: %w", item.i, err))
					return
				}
				select {
				case denCh <- streamItem{item.i, dst}:
				case <-ectx.Done():
					pool.Put(dst)
					return
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(denCh)
	}()

	pending := make(map[int]*img.Gray, window)
	next := 0
	for item := range denCh {
		if ectx.Err() != nil {
			pool.Put(item.g)
			continue
		}
		pending[item.i] = item.g
		for {
			g, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			<-credits
			// The fold runs under par.Call too: a panic in it fails the
			// run, waits for the feeder and drains the pool like an error.
			if err := par.Call(next, func() error { return consume(ectx, next, g) }); err != nil {
				fail(err)
				break
			}
			next++
		}
	}
	denSp.End()
	for _, g := range pending {
		pool.Put(g)
	}
	// A worker that fails, or sees the run cancelled, exits without
	// waiting for the feeder, so denCh can close while the feeder is
	// still in the source or the gate. The run is cancelled then, and
	// the feeder stops at its next context check or hand-off.
	<-fed
	// Every goroutine has exited, so failErr and the gate's report are
	// stable here.
	if failErr != nil {
		return RepairReport{}, failErr
	}
	rep := gate.rep
	if k := len(rep.Repairs); k > 0 {
		ob.Info("quality gate", "checked", rep.Checked, "repaired", k)
	}
	if next != n {
		return rep, fmt.Errorf("core: stream: delivered %d of %d slices", next, n)
	}
	return rep, nil
}

// streamFold folds denoised slices into the reconstruction's per-layer
// planar views as they arrive: a register.Stacker aligns each slice to
// the previous denoised slice, register.PairResidual measures the
// residual drift of each aligned pair, and volume.BandMeanRow adds the
// slice's row to every layer's planar average — all without ever
// materializing the denoised stack, the aligned stack or the volume.
// These are the functions AlignStackCtx, ResidualDriftCtx and
// volume.PlanarAverage run, so the folded views equal reslicing the
// materialized aligned stack bit for bit.
type streamFold struct {
	regOpts register.Options
	pool    *img.Pool
	doAlign bool
	n       int
	stack   *register.Stacker

	layers []layout.Layer
	bands  [][2]int
	views  []*img.Gray

	prevAligned *img.Gray // last aligned slice (residual reference)
	fallbacks   int
	residSum    float64
}

// consume implements the streamCore contract: it owns den on every
// path, returning it to the pool once no longer needed (or on error).
// The gate has already validated every slice and checked that all
// share slice 0's dimensions, which denoising and translation keep.
func (f *streamFold) consume(ctx context.Context, i int, den *img.Gray) error {
	if i == 0 {
		if err := f.initViews(den.W, den.H); err != nil {
			f.pool.Put(den)
			return err
		}
	}
	if !f.doAlign {
		f.fold(i, den)
		f.pool.Put(den)
		return failpoint.Inject("core.fold")
	}
	a, r, err := f.stack.Push(ctx, den)
	if err != nil {
		return fmt.Errorf("core: align: %w", err)
	}
	if r.Fallback {
		f.fallbacks++
	}
	if i > 0 {
		d, err := register.PairResidual(ctx, f.prevAligned, a, f.regOpts)
		if err != nil {
			f.pool.Put(a)
			return fmt.Errorf("core: residual: %w", err)
		}
		f.residSum += d
	}
	f.fold(i, a)
	if f.prevAligned != nil {
		f.pool.Put(f.prevAligned)
	}
	f.prevAligned = a
	// The fold's state owns every buffer here, so release() returns
	// them all whatever the site does.
	return failpoint.Inject("core.fold")
}

// initViews sizes the views from slice 0's dimensions and checks every
// layer's depth band against the slice height, as PlanFromVolumeCtx
// does through PlanarAverage.
func (f *streamFold) initViews(w, h int) error {
	f.views = make([]*img.Gray, len(f.layers))
	f.bands = make([][2]int, len(f.layers))
	for li, layer := range f.layers {
		y0, y1 := bandInterior(layer)
		if err := volume.CheckBand(y0, y1, h); err != nil {
			return fmt.Errorf("core: planar view of %s: %w", layer, err)
		}
		f.bands[li] = [2]int{y0, y1}
		f.views[li] = img.New(w, f.n)
	}
	return nil
}

// fold writes slice z's row of every layer view.
func (f *streamFold) fold(z int, g *img.Gray) {
	for li, view := range f.views {
		volume.BandMeanRow(view.Pix[z*view.W:(z+1)*view.W], g.Pix, f.bands[li][0], f.bands[li][1])
	}
}

// release returns the fold's held references to the pool; safe to call
// on any partial state.
func (f *streamFold) release() {
	f.stack.Release()
	if f.prevAligned != nil {
		f.pool.Put(f.prevAligned)
		f.prevAligned = nil
	}
}

// viewMap returns the folded planar views by layer name.
func (f *streamFold) viewMap() map[string]*img.Gray {
	out := make(map[string]*img.Gray, len(f.layers))
	for i, layer := range f.layers {
		out[layer.String()] = f.views[i]
	}
	return out
}

// foldStream runs the streaming engine to its fold in a single
// bounded-memory pass: source → incremental quality gate → denoise
// fan-out → pairwise alignment → incremental view fold. Peak memory
// holds the pipeline window plus the per-layer views instead of any
// stack-sized intermediate. It returns the fold, whose views are the
// raw (pre-median) planar views, and the reconstruction report; both
// are byte-identical to the whole-stack reference for any worker count.
func foldStream(ctx context.Context, n int, src streamSource, dwellUS float64, o Options) (*streamFold, ReconInfo, error) {
	var info ReconInfo
	switch o.Denoiser {
	case "chambolle", "split-bregman", "none", "":
	default:
		return nil, info, fmt.Errorf("core: unknown denoiser %q", o.Denoiser)
	}
	ob := o.Obs
	W := par.Count(o.Workers)
	doAlign := o.Register.MaxShift > 0 && n > 1

	// Each concurrently-open stage span gets a private lane relative to
	// the run's base lane (gate +1, denoise +2, denoise workers +3..,
	// then the consumer-side stages), keeping per-lane intervals
	// disjoint-or-nested for the trace.
	var alignSp, residSp *obs.Span
	if doAlign {
		alignSp = ob.WithLaneOffset(3 + W).StartSpan(StageAlign)
		residSp = ob.WithLaneOffset(4 + W).StartSpan("align/residual")
	}
	assembleSp := ob.WithLaneOffset(5 + W).StartSpan(StageAssemble)
	defer assembleSp.End()
	defer residSp.End()
	defer alignSp.End()

	f := &streamFold{
		regOpts: regOptions(o),
		pool:    o.Pool,
		doAlign: doAlign,
		n:       n,
		layers:  bandedLayers(),
	}
	f.stack = register.NewStacker(f.regOpts, o.Pool)
	rep, err := streamCore(ctx, n, src, dwellUS, o, o.Pool, f.consume)
	f.release()
	if err != nil {
		return nil, info, err
	}
	if n == 0 {
		return nil, info, fmt.Errorf("core: stack: %w", fmt.Errorf("volume: empty stack"))
	}
	info.Repairs = rep
	info.AlignFallbacks = f.fallbacks
	if doAlign {
		if f.fallbacks > 0 {
			ob.Info("alignment degraded", "fallbacks", f.fallbacks)
		}
		info.ResidualDriftPx = f.residSum / float64(n-1)
	}
	if pool := o.Pool; pool != nil {
		st := pool.Stats()
		ob.Gauge("img.pool.hits", float64(st.Hits))
		ob.Gauge("img.pool.misses", float64(st.Misses))
		ob.Gauge("img.pool.peak_live", float64(st.PeakLive))
	}
	return f, info, nil
}

// reconstructStream is the reconstruction every entry point runs:
// foldStream, then the planFromViews tail on the folded views. It
// returns the plan, the reconstruction report and the raw planar views
// by layer name.
func reconstructStream(ctx context.Context, n int, src streamSource, dwellUS float64,
	window geom.Rect, o Options) (*netex.Plan, ReconInfo, map[string]*img.Gray, error) {
	f, info, err := foldStream(ctx, n, src, dwellUS, o)
	if err != nil {
		return nil, info, nil, err
	}
	plan, err := planFromViews(ctx, f.layers, func(i int) (*img.Gray, error) {
		return f.views[i], nil
	}, window, o)
	if err != nil {
		return nil, info, nil, err
	}
	return plan, info, f.viewMap(), nil
}

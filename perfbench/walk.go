package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/chipgen"
	"repro/internal/chips"
	"repro/internal/core"
	"repro/internal/denoise"
	"repro/internal/fault"
	"repro/internal/img"
	"repro/internal/measure"
	"repro/internal/netex"
	"repro/internal/obs"
	"repro/internal/register"
	"repro/internal/sem"
	"repro/internal/volume"
)

// Per-layer metric names and units, in layer order. Every traced run
// prints all of them; a layer a workload does not exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"chipgen.generate_s", "s"},
	{"chipgen.voxelize_s", "s"},
	{"sem.acquire_s", "s"},
	{"sem.slices", "count"},
	{"fault.inject_s", "s"},
	{"fault.injected", "count"},
	{"core.reconstruct_s", "s"},
	{"core.gate.mi_evals", "count"},
	{"core.gate.repaired", "count"},
	{"core.gate.recall_pct", "%"},
	{"core.align_fallbacks", "count"},
	{"denoise.total_s", "s"},
	{"denoise.slice_p50_s", "s"},
	{"denoise.iterations", "count"},
	{"register.align_stack_s", "s"},
	{"register.residual_s", "s"},
	{"register.mi_evals", "count"},
	{"volume.from_stack_s", "s"},
	{"core.plan_from_volume_s", "s"},
	{"netex.extract_s", "s"},
	{"measure.score_s", "s"},
	{"img.pool.hit_pct", "%"},
	{"img.pool.peak_live", "count"},
	{"ckpt.bytes_per_job", "bytes"},
	{"ckpt.entries_per_job", "count"},
	{"serve.submit_hit_p50_s", "s"},
	{"serve.submit_p50_s", "s"},
	{"serve.queue_wait_p50_s", "s"},
	{"serve.run_p50_s", "s"},
	{"serve.cache_hit_pct", "%"},
	{"serve.follower_pct", "%"},
	{"serve.runs_per_leader", "count"},
	{"obs.trace_overhead_pct", "%"},
}

// newLayerResult returns a result holding every per-layer metric at 0.
func newLayerResult() *result {
	r := &result{Correct: true}
	for _, m := range layerMetrics {
		r.set(m.name, 0, m.unit)
	}
	return r
}

// setLayer overwrites a per-layer metric, keeping its declared unit.
func (r *result) setLayer(name string, v float64) {
	r.set(name, v, r.Metrics[name].Unit)
}

// tracedRun is one core.RunCtx with the program's own instrumentation
// switched on. Its Result.Telemetry supplies the deterministic counters
// of the gate, denoise and register layers.
func tracedRun(ctx context.Context, chip *chips.Chip, o core.Options) (*core.Result, error) {
	o.Obs = &obs.Observer{Metrics: obs.NewMetrics(), Trace: obs.NewTrace()}
	return core.RunCtx(ctx, chip, o)
}

// setCounters copies the layer counters of a traced run into r.
func setCounters(r *result, res *core.Result) {
	c := res.Telemetry.Counters
	r.setLayer("core.gate.mi_evals", float64(c["quality.mi_evals"]))
	r.setLayer("core.gate.repaired", float64(c["quality.repaired"]))
	r.setLayer("core.align_fallbacks", float64(res.AlignFallbacks))
	r.setLayer("denoise.iterations", float64(c["denoise.iterations"]))
	r.setLayer("register.mi_evals", float64(c["register.mi_evals"]))
	recall := 100.0 // nothing injected, nothing missed
	if res.Injected != nil && len(res.Injected.Injected) > 0 {
		flagged := make(map[int]bool, len(res.Repairs.Repairs))
		for _, rep := range res.Repairs.Repairs {
			flagged[rep.Index] = true
		}
		found := 0
		for _, inj := range res.Injected.Injected {
			if flagged[inj.Index] {
				found++
			}
		}
		recall = pct(float64(found), float64(len(res.Injected.Injected)))
	}
	r.setLayer("core.gate.recall_pct", recall)
}

// setPool reports the buffer pool's recycling share and high-water mark.
func setPool(r *result, st img.PoolStats) {
	r.setLayer("img.pool.hit_pct", pct(float64(st.Hits), float64(st.Hits+st.Misses)))
	r.setLayer("img.pool.peak_live", float64(st.PeakLive))
}

// walkLayers runs one extraction by calling each layer's public entry
// point in pipeline order, one layer at a time, with a span around every
// call, so no two layers overlap and each span is that layer's time.
//
// The engine's own reconstruction (core.ReconstructCtx: quality gate,
// denoise, alignment, residual, assembly and planar segmentation,
// streamed) runs first and supplies the plan that is extracted and
// scored. Its stages are then replayed through the denoise, register,
// volume and core entry points to attribute the reconstruction time;
// the replay skips the gate's repairs and the engine's flat-fielding,
// so it attributes time and is not scored.
func walkLayers(ctx context.Context, tr *tracer, parent int, chip *chips.Chip, o core.Options, r *result) error {
	o.Obs = nil
	timed := func(name string, fn func() error) error {
		id := tr.start(name, parent, 0)
		err := fn()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	cfg := chipgen.DefaultConfig(chip)
	cfg.Units = o.Units
	cfg.JitterPct = o.JitterPct
	cfg.JitterSeed = o.JitterSeed
	var region *chipgen.Region
	if err := timed("chipgen.generate", func() (err error) {
		region, err = chipgen.Generate(cfg)
		return err
	}); err != nil {
		return err
	}
	window := region.Cell.Bounds()
	var vol *chipgen.MatVolume
	if err := timed("chipgen.voxelize", func() (err error) {
		vol, err = chipgen.Voxelize(region.Cell, window, o.VoxelNM)
		return err
	}); err != nil {
		return err
	}
	o.SEM.Detector = chip.Detector
	var acq *sem.Acquisition
	if err := timed("sem.acquire", func() (err error) {
		acq, err = sem.AcquireStackCtx(ctx, vol, o.SEM)
		return err
	}); err != nil {
		return err
	}
	vol = nil
	r.setLayer("sem.slices", float64(len(acq.Slices)))
	if o.Faults != nil {
		var rep *fault.Report
		if err := timed("fault.inject", func() (err error) {
			rep, err = fault.Inject(acq, *o.Faults)
			return err
		}); err != nil {
			return err
		}
		r.setLayer("fault.injected", float64(len(rep.Injected)))
	}
	var plan *netex.Plan
	if err := timed("core.reconstruct", func() (err error) {
		plan, _, err = core.ReconstructCtx(ctx, acq, window, o)
		return err
	}); err != nil {
		return err
	}
	var ext *netex.Result
	if err := timed("netex.extract", func() (err error) {
		ext, err = netex.Extract(plan)
		return err
	}); err != nil {
		return err
	}
	if err := timed("measure.score", func() error {
		measure.FromTransistors(ext.Transistors)
		measure.CompareToTruth(ext, region.Truth)
		return nil
	}); err != nil {
		return err
	}

	// Replay of the reconstruction's stages, layer by layer.
	var den []*img.Gray
	if err := timed("denoise.stack", func() (err error) {
		den, err = denoiseStack(ctx, tr, acq.Slices, o)
		return err
	}); err != nil {
		return err
	}
	acq = nil
	reg := o.Register
	reg.Workers = o.Workers
	var aligned []*img.Gray
	if err := timed("register.align_stack", func() (err error) {
		aligned, _, err = register.AlignStackCtx(ctx, den, reg)
		return err
	}); err != nil {
		return err
	}
	den = nil
	if err := timed("register.residual", func() error {
		_, err := register.ResidualDriftCtx(ctx, aligned, reg)
		return err
	}); err != nil {
		return err
	}
	var stack *volume.Volume
	if err := timed("volume.from_stack", func() (err error) {
		stack, err = volume.FromStack(aligned)
		return err
	}); err != nil {
		return err
	}
	aligned = nil
	return timed("core.plan_from_volume", func() error {
		_, err := core.PlanFromVolumeCtx(ctx, stack, window, o)
		return err
	})
}

// denoiseStack denoises every slice with the configured TV parameters,
// fanned out over o.Workers like the engine's denoise stage, with one
// span per slice on the worker's lane.
func denoiseStack(ctx context.Context, tr *tracer, slices []*img.Gray, o core.Options) ([]*img.Gray, error) {
	out := make([]*img.Gray, len(slices))
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, o.Workers)
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(slices) {
					return
				}
				id := tr.start("denoise.slice", 0, w+1)
				g, err := denoise.ChambolleCtx(ctx, slices[i], o.Denoise)
				tr.end(id)
				if err != nil {
					errs[w] = err
					return
				}
				out[i] = g
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// setWalkTimes reports the median duration of each walked layer.
func setWalkTimes(r *result, tr *tracer) {
	for _, m := range []struct{ metric, span string }{
		{"chipgen.generate_s", "chipgen.generate"},
		{"chipgen.voxelize_s", "chipgen.voxelize"},
		{"sem.acquire_s", "sem.acquire"},
		{"fault.inject_s", "fault.inject"},
		{"core.reconstruct_s", "core.reconstruct"},
		{"denoise.total_s", "denoise.stack"},
		{"denoise.slice_p50_s", "denoise.slice"},
		{"register.align_stack_s", "register.align_stack"},
		{"register.residual_s", "register.residual"},
		{"volume.from_stack_s", "volume.from_stack"},
		{"core.plan_from_volume_s", "core.plan_from_volume"},
		{"netex.extract_s", "netex.extract"},
		{"measure.score_s", "measure.score"},
	} {
		if d := tr.seconds(m.span); len(d) > 0 {
			r.setLayer(m.metric, median(d))
		}
	}
}

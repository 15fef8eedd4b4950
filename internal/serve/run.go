package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/chips"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/failpoint"
	"repro/internal/fault"
	"repro/internal/gds"
	"repro/internal/img"
	"repro/internal/obs"
	"repro/internal/supervise"
)

// Request is a job submission: a chip, a base options profile, and the
// result-affecting overrides the CLI also exposes. Two requests that
// resolve to the same chip and core.Options are the same computation —
// the server fingerprints the resolved options (core.FingerprintOptions)
// and dedupes on that, so a profile and the equivalent explicit
// overrides share cache entries.
type Request struct {
	// Chip is the chip ID (A4, B4, C4, A5, B5, C5). Required.
	Chip string `json:"chip"`
	// Profile selects the base options. "default" (or empty) is
	// core.DefaultOptions(): 2 SA units, 4 nm voxels, a 3 us dwell,
	// 0.5 px drift, Chambolle at λ=25 with up to 60 iterations. "fast"
	// is the same with 1 SA unit, 8 nm voxels, 0.4 px drift and 8
	// iterations. Both image at 3 us, where extract images at 12 us
	// (its -dwell default); DwellUS 12 reproduces extract's acquisition.
	Profile string `json:"profile,omitempty"`
	// Tenant is an opaque client label, surfaced in per-tenant job
	// counters; it never affects the computation or the cache key.
	Tenant string `json:"tenant,omitempty"`
	// Die runs the die-level flow (blind ROI identification first).
	Die bool `json:"die,omitempty"`
	// Views additionally produces the per-layer planar PGM views
	// (region-level runs only).
	Views bool `json:"views,omitempty"`
	// Units, VoxelNM, DwellUS and Pyramid override the profile when
	// nonzero — the same knobs as extract -units/-voxel/-dwell/-pyramid.
	Units   int     `json:"units,omitempty"`
	VoxelNM int64   `json:"voxel_nm,omitempty"`
	DwellUS float64 `json:"dwell_us,omitempty"`
	Pyramid int     `json:"pyramid,omitempty"`
	// Faults corrupts the acquisition with the default fault plan
	// (FaultSeed selects the draw; 0 means seed 1), like extract -faults.
	Faults    bool  `json:"faults,omitempty"`
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// DeadlineMS, when positive, is the client's completion deadline in
	// milliseconds from acceptance. It is not a result-affecting option —
	// it never enters the fingerprint or the dedupe key — but it rides
	// the journaled request, so a recovered job keeps its deadline. A job
	// still queued past its deadline is shed as canceled without
	// consuming a worker; a running one has its context expire
	// (HTTP 504).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Artifact names every completed job serves; views jobs add one
// "views/<layer>.pgm" per fabrication layer.
const (
	ArtifactReport = "report.json"
	ArtifactGDS    = "extracted.gds"
)

// Bounds on the numeric overrides a client may submit. Without them one
// request could make the server generate and image an arbitrarily large
// region inside its own process.
const (
	// maxUnits caps Request.Units. The generated region carries 4 bitlines
	// per unit, and generation, imaging and reconstruction time grow
	// linearly with it. 8 is four times the default profile's 2 units and
	// twice the largest value any test, smoke run or benchmark submits.
	maxUnits = 8
	// minVoxelNM floors Request.VoxelNM. Voxel count grows with the cube
	// of 1/VoxelNM, so halving the voxel costs 8x the work and memory of
	// the same region. 4 nm is the default profile's voxel, the finest
	// any test, smoke run or benchmark uses.
	minVoxelNM = 4
)

// resolve validates the request and returns the chip, the resolved
// result-affecting options (detector included, exactly as core.RunCtx
// would key its checkpoints) and the cache unit.
func (r Request) resolve() (*chips.Chip, core.Options, string, error) {
	c := chips.ByID(r.Chip)
	if c == nil {
		return nil, core.Options{}, "", fmt.Errorf("unknown chip %q", r.Chip)
	}
	if r.Die && r.Views {
		return nil, core.Options{}, "", fmt.Errorf("views are region-level only; die and views are mutually exclusive")
	}
	if r.Units < 0 || r.VoxelNM < 0 || r.DwellUS < 0 || r.Pyramid < 0 {
		return nil, core.Options{}, "", fmt.Errorf("negative option override")
	}
	if r.Units > maxUnits {
		return nil, core.Options{}, "", fmt.Errorf("units %d above the cap of %d", r.Units, maxUnits)
	}
	if r.VoxelNM > 0 && r.VoxelNM < minVoxelNM {
		return nil, core.Options{}, "", fmt.Errorf("voxel_nm %d below the floor of %d", r.VoxelNM, minVoxelNM)
	}
	if r.DeadlineMS < 0 {
		return nil, core.Options{}, "", fmt.Errorf("negative deadline_ms")
	}
	var o core.Options
	switch r.Profile {
	case "", "default":
		o = core.DefaultOptions()
	case "fast":
		o = core.DefaultOptions()
		o.Units = 1
		o.VoxelNM = 8
		o.SEM.DriftSigmaPx = 0.4
		o.Denoise.Iterations = 8
	default:
		return nil, core.Options{}, "", fmt.Errorf("unknown profile %q (want default or fast)", r.Profile)
	}
	if r.Units > 0 {
		o.Units = r.Units
	}
	if r.VoxelNM > 0 {
		o.VoxelNM = r.VoxelNM
	}
	if r.DwellUS > 0 {
		o.SEM.DwellUS = r.DwellUS
	}
	o.Register.Pyramid = r.Pyramid
	if r.Faults {
		p := fault.DefaultPlan()
		p.Seed = r.FaultSeed
		if p.Seed == 0 {
			p.Seed = 1
		}
		o.Faults = &p
	}
	// Resolve the detector the way RunCtx does before it fingerprints,
	// so the serve cache key equals the run's checkpoint key prefix.
	o.SEM.Detector = c.Detector
	unit := c.ID
	if r.Die {
		unit += "/die"
	}
	return c, o, unit, nil
}

// identity returns the job's one identity key: the checkpoint unit, the
// options fingerprint and the result stage. The views flag widens the
// artifact set, so it selects its own stage and views and plain jobs
// neither dedupe to each other nor share a cache entry. The key is the
// in-flight dedupe key, the cache key and, stage aside, the GC pin.
func (r Request) identity() (ckpt.Key, error) {
	_, o, unit, err := r.resolve()
	if err != nil {
		return ckpt.Key{}, err
	}
	fp, err := core.FingerprintOptions(o)
	if err != nil {
		return ckpt.Key{}, err
	}
	stage := stageResult
	if r.Views {
		stage = stageResultViews
	}
	return ckpt.Key{Unit: unit, Fingerprint: fp, Stage: stage}, nil
}

// Report is the report.json artifact: the same summary the extract
// table prints, in machine-readable form. It holds nothing that depends
// on what happened to be cached — the job's counters live on its
// JobStatus — so it is byte-identical whether its computation was
// fresh, stage-resumed or served from the cache.
type Report struct {
	Chip             string     `json:"chip"`
	Topology         string     `json:"topology"`
	TopologyCorrect  bool       `json:"topology_correct"`
	BitlinesFound    int        `json:"bitlines_found"`
	BitlinesTrue     int        `json:"bitlines_true"`
	TransistorsFound int        `json:"transistors_found"`
	TransistorsTrue  int        `json:"transistors_true"`
	MeanRelErrPct    float64    `json:"mean_rel_err_pct"`
	SliceCount       int        `json:"slice_count"`
	CostHours        float64    `json:"cost_hours"`
	ResidualDriftPx  float64    `json:"residual_drift_px"`
	Repairs          int        `json:"repairs"`
	AlignFallbacks   int        `json:"align_fallbacks"`
	FaultsInjected   int        `json:"faults_injected,omitempty"`
	ROI              *ROIReport `json:"roi,omitempty"`
}

// ROIReport reports the die-level blind ROI identification.
type ROIReport struct {
	FoundNM [2]int64 `json:"found_nm"`
	TrueNM  [2]int64 `json:"true_nm"`
	IoU     float64  `json:"iou"`
}

// buildReport renders the deterministic report artifact.
func buildReport(res *core.Result, die *core.DieResult) ([]byte, error) {
	rep := Report{
		Chip:             res.Chip.ID,
		Topology:         res.Extraction.Topology.String(),
		TopologyCorrect:  res.Score.TopologyCorrect,
		BitlinesFound:    res.Extraction.Bitlines,
		BitlinesTrue:     res.Truth.Bitlines,
		TransistorsFound: len(res.Extraction.Transistors),
		TransistorsTrue:  res.Truth.TransistorCount,
		MeanRelErrPct:    100 * res.Score.MeanRelErr,
		SliceCount:       res.SliceCount,
		CostHours:        res.CostHours,
		ResidualDriftPx:  res.ResidualDriftPx,
		Repairs:          len(res.Repairs.Repairs),
		AlignFallbacks:   res.AlignFallbacks,
	}
	if res.Injected != nil {
		rep.FaultsInjected = len(res.Injected.Injected)
	}
	if die != nil {
		rep.ROI = &ROIReport{FoundNM: die.ROI, TrueNM: die.TrueROI, IoU: die.ROIOverlap}
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("serve: report: %w", err)
	}
	return append(out, '\n'), nil
}

// ExtractedGDSBytes renders a pipeline result's annotated extracted
// layout as GDSII — byte-identical to the file extract -gds writes.
func ExtractedGDSBytes(res *core.Result) ([]byte, error) {
	if res == nil || res.Extraction == nil || res.Plan == nil {
		return nil, fmt.Errorf("serve: result carries no extraction plan")
	}
	s, err := gds.FromCell(res.Extraction.AnnotatedCell(res.Plan, "extracted_"+res.Chip.ID))
	if err != nil {
		return nil, err
	}
	lib := gds.NewLibrary("HIFIDRAM_EXTRACTED_" + res.Chip.ID)
	lib.Structs = []gds.Structure{s}
	var buf bytes.Buffer
	if err := lib.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runPipeline is the production runner: it drives the job as a
// one-unit supervised campaign (deadline, panic isolation, interruption
// on shutdown — the same contract extract -all gives each chip) and
// assembles the artifact set. inner is the job's worker budget from the
// server's par.SplitBudget split; ob is the job's private observer.
func (s *Server) runPipeline(ctx context.Context, req Request, inner int, ob *obs.Observer) (map[string][]byte, error) {
	chip, o, _, err := req.resolve()
	if err != nil {
		return nil, err
	}
	o.Workers = inner
	o.Obs = ob
	// Shared across jobs: slice buffers freed by one reconstruction are
	// reused by the next instead of re-allocated, and the pool gauges
	// (img.pool.*) land in /metrics via the job observer.
	o.Pool = s.pool
	// The shared store plays both of its roles here: the run checkpoints
	// its extraction (planar views included) into it, so a second job
	// with the same fingerprint but a wider artifact set resumes without
	// imaging anything, and the finished artifacts are published into it
	// under the same unit/fingerprint prefix by the worker.
	o.Ckpt = s.cfg.Cache

	var res *core.Result
	var dres *core.DieResult
	_, err = supervise.Run(ctx, []string{chip.ID}, func(ctx context.Context, _ int) error {
		// Per-unit poisoning: a "serve.run.<chip>=error" failpoint makes
		// exactly this unit fail deterministically, which is how the
		// overload smoke stores a failure entry for one chip without
		// touching the others.
		if ferr := failpoint.Inject("serve.run." + chip.ID); ferr != nil {
			return ferr
		}
		if req.Die {
			d, err := core.RunOnDieCtx(ctx, chip, o)
			if err != nil {
				return err
			}
			dres, res = d, d.Pipeline
			return nil
		}
		r, err := core.RunCtx(ctx, chip, o)
		if err != nil {
			return err
		}
		res = r
		return nil
	}, supervise.Options{Timeout: s.cfg.Timeout, Workers: 1, Obs: ob})
	if err != nil {
		return nil, err
	}

	artifacts := make(map[string][]byte, 2)
	if artifacts[ArtifactReport], err = buildReport(res, dres); err != nil {
		return nil, err
	}
	if artifacts[ArtifactGDS], err = ExtractedGDSBytes(res); err != nil {
		return nil, err
	}
	if req.Views {
		if err := addViews(res, artifacts); err != nil {
			return nil, err
		}
	}
	return artifacts, nil
}

// addViews renders the run's per-layer planar views as PGM artifacts,
// the way the planar subcommand does. The views come with the Result,
// so a views job costs exactly one reconstruction.
func addViews(res *core.Result, artifacts map[string][]byte) error {
	for name, view := range res.Views {
		view = view.Clone()
		view.Normalize()
		var buf bytes.Buffer
		if err := img.WritePGM(&buf, view); err != nil {
			return fmt.Errorf("serve: views: %w", err)
		}
		artifacts["views/"+name+".pgm"] = buf.Bytes()
	}
	return nil
}

// Package fault deterministically corrupts FIB/SEM acquisitions with the
// artifact classes a real milling campaign produces beyond the baseline
// noise/drift the simulator always injects: skipped slices, charging
// flares, curtaining stripes, detector-dropout rows and drift bursts
// (Section IV of the paper motivates each). The injector records ground
// truth of everything it corrupted, so the reconstruction pipeline's
// slice-quality gate can be scored with precision/recall instead of
// eyeballed.
package fault

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/img"
	"repro/internal/obs"
	"repro/internal/sem"
)

// Kind identifies one fault model.
type Kind int

const (
	// KindNone marks a healthy slice.
	KindNone Kind = iota
	// KindDroppedSlice is a milling skip: the detector recorded only
	// background for the whole frame.
	KindDroppedSlice
	// KindChargingFlare is a charging discharge: saturated blobs wipe
	// out part of the frame at the detector ceiling.
	KindChargingFlare
	// KindCurtaining is FIB curtaining: vertical stripes of columns are
	// destroyed by milling streaks.
	KindCurtaining
	// KindDetectorDropout is a scan-electronics glitch: a band of rows
	// reads back as a constant.
	KindDetectorDropout
	// KindDriftBurst is a sudden stage jump far beyond the per-slice
	// drift random walk.
	KindDriftBurst
	// KindUnknown is used by detectors for an anomaly that matches no
	// specific model; the injector never produces it.
	KindUnknown
)

var kindNames = map[Kind]string{
	KindNone:            "none",
	KindDroppedSlice:    "dropped-slice",
	KindChargingFlare:   "charging-flare",
	KindCurtaining:      "curtaining",
	KindDetectorDropout: "detector-dropout",
	KindDriftBurst:      "drift-burst",
	KindUnknown:         "unknown",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Plan configures an injection run. Each rate is the fraction of slices
// to corrupt with that model; any non-zero rate corrupts at least one
// slice. Indices are drawn without replacement, so the models never
// overlap on one slice and the total corrupted fraction is (about) the
// sum of the rates.
type Plan struct {
	// Seed drives the index draw and every corruption; equal plans on
	// equal acquisitions inject byte-identical faults.
	Seed int64
	// Rates per fault model, each in [0, 1].
	DropRate    float64
	FlareRate   float64
	CurtainRate float64
	DropoutRate float64
	BurstRate   float64
}

// DefaultPlan corrupts ~15% of the stack, three percent per model — the
// default robustness workload (comfortably past the 10% floor the
// acceptance gate demands on every studied chip).
func DefaultPlan() Plan {
	return Plan{
		Seed:     1,
		DropRate: 0.03, FlareRate: 0.03, CurtainRate: 0.03,
		DropoutRate: 0.03, BurstRate: 0.03,
	}
}

// Validate checks the plan.
func (p Plan) Validate() error {
	sum := 0.0
	for _, r := range []float64{p.DropRate, p.FlareRate, p.CurtainRate, p.DropoutRate, p.BurstRate} {
		if r < 0 || r > 1 {
			return fmt.Errorf("fault: rate %v outside [0, 1]", r)
		}
		sum += r
	}
	if sum > 1 {
		return fmt.Errorf("fault: rates sum to %v > 1", sum)
	}
	return nil
}

// TotalRate is the summed per-model rate.
func (p Plan) TotalRate() float64 {
	return p.DropRate + p.FlareRate + p.CurtainRate + p.DropoutRate + p.BurstRate
}

// Injection records one corrupted slice.
type Injection struct {
	Index int
	Kind  Kind
}

// Report is the injection ground truth.
type Report struct {
	// Plan echoes the configuration.
	Plan Plan
	// Injected lists the corrupted slices in ascending index order.
	Injected []Injection
}

// ByIndex returns the injected kinds keyed by slice index.
func (r *Report) ByIndex() map[int]Kind {
	m := make(map[int]Kind, len(r.Injected))
	for _, inj := range r.Injected {
		m[inj.Index] = inj.Kind
	}
	return m
}

// Indices returns the corrupted slice indices in ascending order.
func (r *Report) Indices() []int {
	out := make([]int, len(r.Injected))
	for i, inj := range r.Injected {
		out[i] = inj.Index
	}
	return out
}

// Corruption strengths. These are deliberately severe: the injector
// models slices that are *lost*, not merely noisy — the baseline SEM
// artifact levels already cover the recoverable regime.
const (
	// dropBackground/dropNoise: a skipped slice images only redeposited
	// background material.
	dropBackground = 0.05
	dropNoise      = 0.01
	// flareBlobs saturated disks per flare, radius min(W,H)/flareRadiusDiv.
	flareBlobs     = 3
	flareRadiusDiv = 6
	flareRadiusMin = 3
	// curtainColFrac of the columns are destroyed in stripes of
	// curtainStripeMin..curtainStripeMax columns.
	curtainColFrac   = 0.35
	curtainStripeMin = 2
	curtainStripeMax = 6
	curtainResidual  = 0.08
	curtainNoise     = 0.03
	// dropoutRowDiv: H/dropoutRowDiv consecutive rows (>= dropoutRowMin)
	// read back as exactly zero.
	dropoutRowDiv = 12
	dropoutRowMin = 2
	// Burst shift magnitudes in pixels: far beyond the default drift
	// random walk (sigma <= 1 px/slice) but well within what a widened
	// alignment window can recover.
	burstMinDX, burstMaxDX = 6, 12
	burstMinDY, burstMaxDY = 3, 6
)

// Inject corrupts the acquisition in place according to the plan and
// returns the ground-truth report. The same plan applied to the same
// acquisition produces byte-identical corruption. Acquisitions shorter
// than four slices are rejected: repair-by-interpolation needs healthy
// neighbors to exist.
func Inject(acq *sem.Acquisition, p Plan) (*Report, error) {
	return InjectObserved(acq, p, nil)
}

// InjectObserved is Inject reporting into an observability sink: one
// "fault.injected.<kind>" counter per model (deterministic — the draw
// depends only on the plan seed and the stack length) plus debug logs
// of every corrupted slice. A nil observer makes it exactly Inject.
func InjectObserved(acq *sem.Acquisition, p Plan, ob *obs.Observer) (*Report, error) {
	if acq == nil {
		return nil, fmt.Errorf("fault: nil acquisition")
	}
	return p.walk(len(acq.Slices), ob, func(i int, m model, rng *rand.Rand, _ int64) {
		acq.Slices[i] = m.corrupt(acq.Slices[i], rng)
	})
}

// model is one fault model: its kind, its rate in the plan, and the
// corruption it applies to a slice.
type model struct {
	kind    Kind
	rate    float64
	corrupt func(g *img.Gray, rng *rand.Rand) *img.Gray
}

// walk draws the plan's injection for an n-slice stack in the
// injector's fixed order — the index permutation first, then each
// model's slices in permutation order — and calls visit for every
// corrupted slice with the random stream positioned at that slice's
// corruption draws. pos counts the source values consumed before them.
// visit must consume exactly the draws the model's corruption makes.
// Every draw depends only on the seed, n and the slice dimensions,
// never on pixel values, which is what lets a Schedule replay one
// slice's corruption on its own. walk returns the ground-truth report
// and emits the per-kind counters.
func (p Plan) walk(n int, ob *obs.Observer, visit func(i int, m model, rng *rand.Rand, pos int64)) (*Report, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n < 4 {
		return nil, fmt.Errorf("fault: need at least 4 slices, have %d", n)
	}
	src := &countingSource{src: rand.NewSource(p.Seed).(rand.Source64)}
	rng := rand.New(src)
	perm := rng.Perm(n)
	next := 0
	take := func(rate float64) []int {
		if rate <= 0 {
			return nil
		}
		count := int(rate*float64(n) + 0.5)
		if count < 1 {
			count = 1
		}
		if count > n-next {
			count = n - next
		}
		idx := perm[next : next+count]
		next += count
		return idx
	}
	rep := &Report{Plan: p}
	models := []model{
		{KindDroppedSlice, p.DropRate, corruptDrop},
		{KindChargingFlare, p.FlareRate, corruptFlare},
		{KindCurtaining, p.CurtainRate, corruptCurtain},
		{KindDetectorDropout, p.DropoutRate, corruptDropout},
		{KindDriftBurst, p.BurstRate, corruptBurst},
	}
	for _, m := range models {
		idx := take(m.rate)
		for _, i := range idx {
			visit(i, m, rng, src.n)
			rep.Injected = append(rep.Injected, Injection{Index: i, Kind: m.kind})
			ob.Debug("fault injected", "slice", i, "kind", m.kind.String())
		}
		if len(idx) > 0 {
			ob.Count("fault.injected."+m.kind.String(), int64(len(idx)))
		}
	}
	sort.Slice(rep.Injected, func(a, b int) bool {
		return rep.Injected[a].Index < rep.Injected[b].Index
	})
	ob.Info("fault injection", "slices", n, "injected", len(rep.Injected), "seed", p.Seed)
	return rep, nil
}

// countingSource counts the values drawn from a random source, so a
// position in the stream can be recorded and later replayed.
type countingSource struct {
	src rand.Source64
	n   int64
}

func (c *countingSource) Int63() int64    { c.n++; return c.src.Int63() }
func (c *countingSource) Uint64() uint64  { c.n++; return c.src.Uint64() }
func (c *countingSource) Seed(seed int64) { c.src.Seed(seed); c.n = 0 }

// Schedule is a plan's injection drawn up front for one stack geometry,
// so slices can be corrupted one at a time as they stream past instead
// of in place on a materialized acquisition. Applying it to every slice
// of a stack gives exactly what Inject gives on that stack.
type Schedule struct {
	seed  int64
	w, h  int
	steps map[int]scheduledFault
	rep   *Report
}

// scheduledFault is one corrupted slice: its model and the position in
// the plan's random stream where its corruption draws start.
type scheduledFault struct {
	m   model
	pos int64
}

// NewSchedule draws the plan's injection for an n-slice stack of w×h
// slices, reporting into ob exactly as InjectObserved does (a nil
// observer reports nothing). The random stream is advanced through
// every corruption on a blank w×h frame, which consumes the same draws
// as corrupting the real slice.
func NewSchedule(p Plan, n, w, h int, ob *obs.Observer) (*Schedule, error) {
	s := &Schedule{seed: p.Seed, w: w, h: h, steps: make(map[int]scheduledFault)}
	blank := img.New(w, h)
	rep, err := p.walk(n, ob, func(i int, m model, rng *rand.Rand, pos int64) {
		s.steps[i] = scheduledFault{m: m, pos: pos}
		m.corrupt(blank, rng)
	})
	if err != nil {
		return nil, err
	}
	s.rep = rep
	return s, nil
}

// Report returns the injection ground truth; nil for a nil schedule.
func (s *Schedule) Report() *Report {
	if s == nil {
		return nil
	}
	return s.rep
}

// Apply returns slice i as the schedule corrupts it: g itself when the
// slice is healthy (or s is nil), otherwise a corrupted copy — the
// slice's corruption replayed from its recorded stream position. g must
// be w×h, the geometry the schedule was drawn for.
func (s *Schedule) Apply(i int, g *img.Gray) (*img.Gray, error) {
	if s == nil {
		return g, nil
	}
	st, ok := s.steps[i]
	if !ok {
		return g, nil
	}
	if g.W != s.w || g.H != s.h {
		return nil, fmt.Errorf("fault: slice %d is %dx%d, schedule drawn for %dx%d", i, g.W, g.H, s.w, s.h)
	}
	src := rand.NewSource(s.seed)
	for k := st.pos; k > 0; k-- {
		src.Int63()
	}
	return st.m.corrupt(g, rand.New(src)), nil
}

// corruptDrop replaces the frame with featureless background.
func corruptDrop(g *img.Gray, rng *rand.Rand) *img.Gray {
	out := img.New(g.W, g.H)
	for i := range out.Pix {
		out.Pix[i] = dropBackground + rng.NormFloat64()*dropNoise
	}
	out.Clamp(0, sem.ClampMax)
	return out
}

// corruptFlare burns saturated disks into the frame.
func corruptFlare(g *img.Gray, rng *rand.Rand) *img.Gray {
	out := g.Clone()
	r := min(g.W, g.H) / flareRadiusDiv
	if r < flareRadiusMin {
		r = flareRadiusMin
	}
	for b := 0; b < flareBlobs; b++ {
		cx := rng.Intn(g.W)
		cy := rng.Intn(g.H)
		for y := cy - r; y <= cy+r; y++ {
			for x := cx - r; x <= cx+r; x++ {
				if x < 0 || x >= g.W || y < 0 || y >= g.H {
					continue
				}
				if (x-cx)*(x-cx)+(y-cy)*(y-cy) <= r*r {
					out.Set(x, y, sem.ClampMax)
				}
			}
		}
	}
	return out
}

// corruptCurtain destroys vertical stripes of columns.
func corruptCurtain(g *img.Gray, rng *rand.Rand) *img.Gray {
	out := g.Clone()
	target := int(curtainColFrac * float64(g.W))
	if target < 1 {
		target = 1
	}
	hit := make([]bool, g.W)
	marked := 0
	for marked < target {
		wstripe := curtainStripeMin + rng.Intn(curtainStripeMax-curtainStripeMin+1)
		start := rng.Intn(g.W)
		for x := start; x < start+wstripe && x < g.W; x++ {
			if !hit[x] {
				hit[x] = true
				marked++
			}
		}
	}
	for x := 0; x < g.W; x++ {
		if !hit[x] {
			continue
		}
		for y := 0; y < g.H; y++ {
			out.Set(x, y, out.At(x, y)*curtainResidual+rng.NormFloat64()*curtainNoise)
		}
	}
	out.Clamp(0, sem.ClampMax)
	return out
}

// corruptDropout zeroes a band of consecutive rows exactly.
func corruptDropout(g *img.Gray, rng *rand.Rand) *img.Gray {
	out := g.Clone()
	k := g.H / dropoutRowDiv
	if k < dropoutRowMin {
		k = dropoutRowMin
	}
	if k > g.H {
		k = g.H
	}
	start := rng.Intn(g.H - k + 1)
	for y := start; y < start+k; y++ {
		for x := 0; x < g.W; x++ {
			out.Set(x, y, 0)
		}
	}
	return out
}

// corruptBurst applies a sudden stage jump.
func corruptBurst(g *img.Gray, rng *rand.Rand) *img.Gray {
	dx := burstMinDX + rng.Intn(burstMaxDX-burstMinDX+1)
	dy := burstMinDY + rng.Intn(burstMaxDY-burstMinDY+1)
	if rng.Intn(2) == 0 {
		dx = -dx
	}
	if rng.Intn(2) == 0 {
		dy = -dy
	}
	return g.Translate(dx, dy)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

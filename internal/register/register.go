// Package register implements the slice-alignment stage of the HiFi-DRAM
// post-processing pipeline: translation-only image registration driven by
// mutual information (the similarity measure the paper uses via
// Dragonfly), plus sequential stack alignment where each slice is aligned
// with respect to the previous one.
//
// Mutual information is preferred over plain correlation because FIB/SEM
// slices of an IC show intensity changes between slices (milling depth,
// charging) that preserve the material-class structure but not absolute
// gray levels.
package register

import (
	"context"
	"fmt"
	"math"

	"repro/internal/img"
	"repro/internal/obs"
	"repro/internal/par"
)

// Shift is a translation in pixels.
type Shift struct {
	DX, DY int
}

// Add composes two shifts.
func (s Shift) Add(t Shift) Shift { return Shift{s.DX + t.DX, s.DY + t.DY} }

// Neg returns the opposite shift.
func (s Shift) Neg() Shift { return Shift{-s.DX, -s.DY} }

// MutualInformation computes the mutual information I(A;B) between two
// equal-size images using a joint histogram with the given number of bins
// per axis over each image's own intensity range. The result is in nats.
func MutualInformation(a, b *img.Gray, bins int) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("register: size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	if bins < 2 {
		return 0, fmt.Errorf("register: need at least 2 bins, got %d", bins)
	}
	sa, sb := a.Statistics(), b.Statistics()
	binOf := func(v, lo, hi float64) int {
		if hi <= lo {
			return 0
		}
		k := int(float64(bins) * (v - lo) / (hi - lo))
		if k < 0 {
			k = 0
		} else if k >= bins {
			k = bins - 1
		}
		return k
	}
	joint := make([]float64, bins*bins)
	n := float64(len(a.Pix))
	for i := range a.Pix {
		ka := binOf(a.Pix[i], sa.Min, sa.Max)
		kb := binOf(b.Pix[i], sb.Min, sb.Max)
		joint[ka*bins+kb]++
	}
	pa := make([]float64, bins)
	pb := make([]float64, bins)
	for i := 0; i < bins; i++ {
		for j := 0; j < bins; j++ {
			p := joint[i*bins+j] / n
			joint[i*bins+j] = p
			pa[i] += p
			pb[j] += p
		}
	}
	var mi float64
	for i := 0; i < bins; i++ {
		for j := 0; j < bins; j++ {
			p := joint[i*bins+j]
			if p > 0 && pa[i] > 0 && pb[j] > 0 {
				mi += p * math.Log(p/(pa[i]*pb[j]))
			}
		}
	}
	return mi, nil
}

// Options configures pairwise registration.
type Options struct {
	// MaxShift bounds the search window in pixels along X; MaxShiftY
	// bounds Y independently (cross-section images are much wider than
	// tall, and stage drift is mostly lateral). A zero MaxShiftY means
	// "same as MaxShift".
	MaxShift  int
	MaxShiftY int
	// Bins is the histogram resolution for mutual information.
	Bins int
	// Margin excludes a border of this many pixels from the overlap
	// region so that edge-extension artifacts do not bias the measure.
	Margin int
	// Workers bounds the goroutines evaluating candidate shifts inside
	// AlignCtx. Values below 1 mean runtime.NumCPU(). The stack-level
	// alignment stays sequential (each slice registers to its
	// predecessor); only the per-candidate mutual-information search is
	// fanned out, and the result is identical for any worker count.
	Workers int
	// MinConfidence is the MI floor (nats) below which AlignRobustCtx does
	// not trust the peak: a corrupted slice produces a flat similarity
	// surface whose argmax is noise, and anchoring the stack to it drags
	// every later slice off target. Zero disables the check.
	MinConfidence float64
	// WidenRetries caps how many times AlignRobustCtx doubles the search
	// window when the peak is untrustworthy (below MinConfidence or
	// sitting on the window boundary, the signature of a drift burst
	// larger than the window). After the cap the identity shift is
	// substituted and flagged. Zero disables widening; with both
	// MinConfidence and WidenRetries zero, AlignRobustCtx is exactly AlignCtx.
	WidenRetries int
	// Pyramid enables the coarse-to-fine search: levels counts pyramid
	// levels, each a further 2x box downsample, so level l searches at
	// 1/2^l resolution. The full window is searched exhaustively only at
	// the coarsest level and each finer level refines the doubled shift
	// by ±1 pixel, cutting MI evaluations from O(Wx·Wy) to O(levels·9).
	// Values <= 1 keep the exhaustive search (the default); levels that
	// would shrink the image below the minimum overlap window are
	// clamped. The final refinement runs at full resolution on the same
	// overlap window as the exhaustive search, so the reported MI at the
	// selected shift is bit-identical to the exhaustive evaluation of
	// that shift — but the selected shift itself is only guaranteed to
	// match exhaustive search when the MI surface is locally unimodal at
	// every pyramid scale (which SEM drift surfaces are; the synthetic
	// chip set is covered by TestPyramidMatchesExhaustiveOnChips).
	Pyramid int
	// Obs receives alignment telemetry: the "register.mi_evals",
	// "register.widen_retries" and "register.align_fallbacks" counters
	// and debug logs for degraded pairs. Nil disables instrumentation;
	// the alignment result is identical either way.
	Obs *obs.Observer
}

// DefaultOptions returns a search window suitable for the drift magnitudes
// the SEM simulator produces (a few pixels per slice).
func DefaultOptions() Options {
	return Options{MaxShift: 6, MaxShiftY: 2, Bins: 32, Margin: 1}
}

func (o Options) shiftY() int {
	if o.MaxShiftY == 0 {
		return o.MaxShift
	}
	return o.MaxShiftY
}

func (o Options) validate() error {
	if o.MaxShift < 0 || o.MaxShiftY < 0 {
		return fmt.Errorf("register: negative shift bound (%d, %d)", o.MaxShift, o.MaxShiftY)
	}
	if o.Bins < 2 || o.Bins > maxBins {
		return fmt.Errorf("register: Bins must be in [2, %d], got %d", maxBins, o.Bins)
	}
	if o.Margin < 0 {
		return fmt.Errorf("register: negative Margin %d", o.Margin)
	}
	if o.MinConfidence < 0 || math.IsNaN(o.MinConfidence) || math.IsInf(o.MinConfidence, 0) {
		return fmt.Errorf("register: MinConfidence must be finite and >= 0, got %v", o.MinConfidence)
	}
	if o.WidenRetries < 0 {
		return fmt.Errorf("register: negative WidenRetries %d", o.WidenRetries)
	}
	if o.Pyramid < 0 {
		return fmt.Errorf("register: negative Pyramid %d", o.Pyramid)
	}
	return nil
}

// robust reports whether the graceful-degradation checks are enabled.
func (o Options) robust() bool {
	return o.MinConfidence > 0 || o.WidenRetries > 0
}

// AlignCtx finds the integer shift of moving that maximizes mutual
// information with fixed, by exhaustive search over the window
// [-MaxShift, MaxShift]^2 evaluated on the shrinking overlap region.
// Applying the returned shift to moving (img.Gray.Translate) brings it
// into registration with fixed. The candidate-shift fan-out checks the
// context between candidates (via par.ForEachCtx), so a cancelled search
// aborts within one MI evaluation. With Options.Pyramid > 1 the
// exhaustive scan is replaced by the coarse-to-fine pyramid search.
func AlignCtx(ctx context.Context, fixed, moving *img.Gray, o Options) (Shift, float64, error) {
	if err := checkPair(fixed, moving, o); err != nil {
		return Shift{}, 0, err
	}
	if o.Pyramid > 1 {
		return alignPyramidCtx(ctx, fixed, moving, o)
	}
	// Enumerate every candidate shift in the row-major order a
	// sequential search would use; the index-addressed result table
	// keeps the selected shift identical for any worker count.
	cands := fullWindow(o.MaxShift, o.shiftY())
	mis, err := searchCands(ctx, fixed, moving, o, o.MaxShift, o.shiftY(), cands)
	if err != nil {
		return Shift{}, 0, err
	}
	best, bestMI := pickBest(cands, mis)
	return best, bestMI, nil
}

// checkPair validates the options and the pair's geometry for a search
// over the options' window: equal sizes, and an overlap window of at
// least 4 pixels per axis.
func checkPair(fixed, moving *img.Gray, o Options) error {
	if err := o.validate(); err != nil {
		return err
	}
	if fixed.W != moving.W || fixed.H != moving.H {
		return fmt.Errorf("register: size mismatch %dx%d vs %dx%d",
			fixed.W, fixed.H, moving.W, moving.H)
	}
	needW := 2*(o.MaxShift+o.Margin) + 4
	needH := 2*(o.shiftY()+o.Margin) + 4
	if fixed.W < needW || fixed.H < needH {
		return fmt.Errorf("register: image %dx%d too small for window %dx%d",
			fixed.W, fixed.H, o.MaxShift, o.shiftY())
	}
	return nil
}

// searchCands evaluates MI for every candidate shift over the overlap
// window supported by [-nx,nx]×[-ny,ny]. The pooled kernel computes
// every candidate's moving-window extrema up front and bins the moving
// image once per distinct extrema pair (a few per search, each far
// cheaper than the candidates that read it); the candidates then fan
// out on Options.Workers with one reusable miScratch per worker, drawn
// from the scratch pool and returned to it afterwards, and only read
// the shared tables. Once the pools are warm the search allocates no
// tables or histograms.
func searchCands(ctx context.Context, fixed, moving *img.Gray, o Options, nx, ny int, cands []Shift) ([]float64, error) {
	k := newMIKernel(fixed, moving, nx, ny, o.Margin, o.Bins)
	defer k.release()
	k.bindCands(cands)
	mis := make([]float64, len(cands))
	scratch := make([]*miScratch, par.WorkersFor(o.Workers, len(cands)))
	defer func() {
		for _, s := range scratch {
			if s != nil {
				scratchPool.Put(s)
			}
		}
	}()
	cfg := par.Config{Workers: o.Workers}
	for t0 := 0; t0 < len(k.keys); t0 += maxTables {
		t1 := min(t0+maxTables, len(k.keys))
		for t := t0; t < t1; t++ {
			k.binTable(t, cands)
		}
		batch := k.byTable[k.first[t0]:k.first[t1]]
		err := par.ForEachWorkerCtx(ctx, cfg, len(batch), func(_ context.Context, worker, j int) error {
			s := scratch[worker]
			if s == nil {
				s = k.getScratch()
				scratch[worker] = s
			}
			i := batch[j]
			mis[i] = k.eval(cands[i].DX, cands[i].DY, &k.tables[k.candTable[i]%maxTables], s)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	o.Obs.Count("register.mi_evals", int64(len(cands)))
	return mis, nil
}

// pickBest scans the candidates in their enumeration order with the
// deterministic tie-break: prefer the smaller shift, so a flat
// similarity surface yields identity.
func pickBest(cands []Shift, mis []float64) (Shift, float64) {
	best := Shift{}
	bestMI := math.Inf(-1)
	for i, mi := range mis {
		s := cands[i]
		if mi > bestMI+1e-12 ||
			(math.Abs(mi-bestMI) <= 1e-12 && lessShift(s, best)) {
			bestMI = mi
			best = s
		}
	}
	return best, bestMI
}

func lessShift(a, b Shift) bool {
	am := a.DX*a.DX + a.DY*a.DY
	bm := b.DX*b.DX + b.DY*b.DY
	return am < bm
}

// AlignResult is the outcome of a robust pairwise alignment.
type AlignResult struct {
	// Shift is the accepted correction; identity when Fallback is set.
	Shift Shift
	// MI is the mutual information at the accepted shift (at the last
	// attempted peak when Fallback is set).
	MI float64
	// Widened counts the window-doubling retries that were consumed.
	Widened int
	// Fallback reports that no trustworthy peak was found within the
	// retry budget and the identity shift was substituted: the caller
	// keeps its current frame instead of anchoring to garbage.
	Fallback bool
}

// atBoundary reports whether the peak sits on the edge of the search
// window — the signature of a true shift at or beyond the window, where
// the argmax is a clamp rather than a maximum.
func atBoundary(s Shift, o Options) bool {
	nx, ny := o.MaxShift, o.shiftY()
	return (nx > 0 && absInt(s.DX) == nx) || (ny > 0 && absInt(s.DY) == ny)
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// maxWindow returns the largest (MaxShift, MaxShiftY) the image can
// support under AlignCtx's minimum-overlap requirement.
func maxWindow(g *img.Gray, margin int) (int, int) {
	return (g.W-4)/2 - margin, (g.H-4)/2 - margin
}

// AlignRobustCtx is AlignCtx with graceful degradation for corrupted or
// heavily drifted slices. A peak is rejected when its MI is below
// Options.MinConfidence or it sits on the search-window boundary; on
// rejection the window doubles (capped by the image size) and the search
// reruns, up to Options.WidenRetries times. When no acceptable peak is
// found the identity shift is returned with Fallback set, so a poisoned
// pair degrades to "no correction" instead of a garbage anchor. With
// MinConfidence == 0 and WidenRetries == 0 it reduces exactly to
// AlignCtx. Cancellation reaches every widening retry's candidate search.
func AlignRobustCtx(ctx context.Context, fixed, moving *img.Gray, o Options) (AlignResult, error) {
	s, mi, err := AlignCtx(ctx, fixed, moving, o)
	if err != nil {
		return AlignResult{}, err
	}
	if !o.robust() {
		return AlignResult{Shift: s, MI: mi}, nil
	}
	cur := o
	fallback := func(widened int) (AlignResult, error) {
		o.Obs.Count("register.align_fallbacks", 1)
		o.Obs.Debug("align fallback", "mi", mi, "widened", widened)
		return AlignResult{MI: mi, Widened: widened, Fallback: true}, nil
	}
	for widened := 0; ; widened++ {
		confident := o.MinConfidence <= 0 || mi >= o.MinConfidence
		if confident && !atBoundary(s, cur) {
			return AlignResult{Shift: s, MI: mi, Widened: widened}, nil
		}
		if widened >= o.WidenRetries {
			return fallback(widened)
		}
		next := cur
		next.MaxShift = 2 * cur.MaxShift
		next.MaxShiftY = 2 * cur.shiftY()
		if capX, capY := maxWindow(fixed, o.Margin); true {
			if next.MaxShift > capX {
				next.MaxShift = capX
			}
			if next.MaxShiftY > capY {
				next.MaxShiftY = capY
			}
		}
		if next.MaxShift <= cur.MaxShift && next.MaxShiftY <= cur.shiftY() {
			// The image cannot support a wider window; give up now.
			return fallback(widened)
		}
		// The widened retry rescans the full window: the overlap region
		// shrinks with the window, so inner candidates score differently
		// on the widened geometry and can win the rescan.
		cur = next
		o.Obs.Count("register.widen_retries", 1)
		o.Obs.Debug("align widen", "max_shift", cur.MaxShift, "max_shift_y", cur.MaxShiftY, "mi", mi)
		if s, mi, err = AlignCtx(ctx, fixed, moving, cur); err != nil {
			return AlignResult{}, err
		}
	}
}

// StackResult describes the alignment of a slice stack.
type StackResult struct {
	// Shifts[i] is the correction applied to slice i to register it to
	// slice 0's frame (Shifts[0] is always zero).
	Shifts []Shift
	// PairMI[i] is the mutual information achieved between aligned
	// slice i and slice i-1 (PairMI[0] is zero).
	PairMI []float64
	// Fallback[i] reports that pair (i-1, i) had no trustworthy MI
	// peak and slice i kept its predecessor's correction (identity
	// pairwise shift) instead of anchoring to a garbage peak. Always
	// false when Options.MinConfidence and WidenRetries are zero.
	Fallback []bool
}

// Fallbacks counts the slices that fell back to the identity shift.
func (r StackResult) Fallbacks() int {
	n := 0
	for _, f := range r.Fallback {
		if f {
			n++
		}
	}
	return n
}

// Stacker aligns a stack one slice at a time, as the paper describes
// ("each slide is aligned with respect to the previous one"): each
// pushed slice registers to its raw predecessor, which keeps every pair
// within the search window however far drift accumulates, and the
// running sum of the pair shifts is its correction to slice 0's frame.
// AlignStackCtx and the streaming reconstruction both align through it.
type Stacker struct {
	o    Options
	pool *img.Pool
	n    int       // index of the next slice
	prev *img.Gray // last pushed raw slice, the next pair's reference
	acc  Shift
}

// NewStacker returns a stacker that draws its aligned slices from pool
// (nil allocates each one).
func NewStacker(o Options, pool *img.Pool) *Stacker {
	return &Stacker{o: o, pool: pool}
}

// Push aligns g to the previous slice with AlignRobustCtx (slice 0 gets
// a zero result), adds the pair's shift to the running correction and
// returns g translated by it in a pool buffer. Push owns g: it keeps g
// as the next reference and returns the previous one to the pool, or
// returns g to the pool on error.
func (s *Stacker) Push(ctx context.Context, g *img.Gray) (*img.Gray, AlignResult, error) {
	var r AlignResult
	if s.prev != nil {
		var err error
		if r, err = AlignRobustCtx(ctx, s.prev, g, s.o); err != nil {
			s.pool.Put(g)
			return nil, r, fmt.Errorf("register: slice %d: %w", s.n, err)
		}
		s.acc = s.acc.Add(r.Shift)
		s.pool.Put(s.prev)
	}
	s.prev = g
	s.n++
	a := s.pool.Get(g.W, g.H)
	g.TranslateInto(a, s.acc.DX, s.acc.DY) // cannot fail: a matches g
	return a, r, nil
}

// Shift returns the correction applied to the last pushed slice.
func (s *Stacker) Shift() Shift { return s.acc }

// Release returns the held reference slice to the pool.
func (s *Stacker) Release() {
	if s.prev != nil {
		s.pool.Put(s.prev)
		s.prev = nil
	}
}

// AlignStackCtx pushes the stack through a Stacker and returns the
// aligned copies alongside the shift report. Cancellation reaches every
// pair's candidate search.
func AlignStackCtx(ctx context.Context, slices []*img.Gray, o Options) ([]*img.Gray, StackResult, error) {
	if len(slices) == 0 {
		return nil, StackResult{}, fmt.Errorf("register: empty stack")
	}
	res := StackResult{
		Shifts:   make([]Shift, len(slices)),
		PairMI:   make([]float64, len(slices)),
		Fallback: make([]bool, len(slices)),
	}
	out := make([]*img.Gray, len(slices))
	st := NewStacker(o, nil)
	for i, g := range slices {
		a, r, err := st.Push(ctx, g)
		if err != nil {
			return nil, StackResult{}, err
		}
		out[i] = a
		res.Shifts[i] = st.Shift()
		res.PairMI[i] = r.MI
		res.Fallback[i] = r.Fallback
	}
	return out, res, nil
}

// residualFullEvery spaces the sampled full searches of a Residual:
// pair 1 and every residualFullEvery-th pair after it take the full
// search whatever the local search finds. A sample is what catches a
// stack whose zero shift is a local maximum of every pair's MI surface
// (a half-period misalignment of a periodic pattern) without a flag of
// its own: one full search that lands outside ±1 switches the rest of
// the stack to full searches. On B4 at 12 us (191 pairs, 9x5 window)
// this spacing costs 24 full searches and 167 local ones: 2583 MI
// evaluations against 8595 for a full search per pair. Under it every
// run of the residual population (make residual-check: six chips, clean
// and at fault seeds 1-3, at dwell 12 and serve's default and fast
// profiles) reports the full search's residual.
const residualFullEvery = 8

// Residual measures the residual drift of an aligned stack pair by
// pair: the magnitude of the shift a re-alignment of each aligned pair
// would still apply, which a well-aligned stack keeps near zero.
//
// The full search (AlignCtx) over every pair would re-align a pair that
// is already aligned, so Pair first evaluates only the ±1 neighbourhood
// of the zero shift, on the full search's own overlap window: the same
// kernel window, the same per-candidate bin tables, hence the same MI
// at each of those 9 shifts. It takes the full search instead when the
// local answer could differ from the full one and the pair says so:
//
//   - the pair is pair 1 or a sampled pair (residualFullEvery);
//   - the caller flags it (a repaired slice, a fallen-back alignment):
//     such a pair's surface is not a drift surface, and a repaired
//     slice can put the best shift outside ±1 with zero the best of
//     its neighbourhood;
//   - the local best is not the zero shift: the full search answers
//     for the pair;
//   - an earlier full search of the stack found a best shift outside
//     ±1: from then on every pair takes the full search.
//
// A local best at zero is the full search's answer unless a shift
// outside ±1 beats it, which is the one case the rule answers by
// sampling rather than exactly. Pairs must be measured in stack order.
type Residual struct {
	o    Options
	k    int     // pairs measured so far
	wide bool    // an earlier full search found a shift outside ±1
	sum  float64 // sum of the pair residuals
}

// NewResidual returns a residual measurement under the alignment
// options o (AlignCtx's window, bins and margin).
func NewResidual(o Options) *Residual {
	return &Residual{o: o}
}

// Pair measures the next aligned pair (prev, cur) and returns its
// residual; flagged forces the full search.
func (r *Residual) Pair(ctx context.Context, prev, cur *img.Gray, flagged bool) (float64, error) {
	r.k++
	var s Shift
	var err error
	full := flagged || r.wide || r.k%residualFullEvery == 1
	if !full {
		if s, _, err = localSearch(ctx, prev, cur, r.o); err != nil {
			return 0, err
		}
		full = s != Shift{}
	}
	if full {
		if s, _, err = AlignCtx(ctx, prev, cur, r.o); err != nil {
			return 0, err
		}
		if absInt(s.DX) > 1 || absInt(s.DY) > 1 {
			r.wide = true
		}
	}
	d := math.Hypot(float64(s.DX), float64(s.DY))
	r.sum += d
	return d, nil
}

// Mean returns the mean residual over the pairs measured so far (zero
// before the first).
func (r *Residual) Mean() float64 {
	if r.k == 0 {
		return 0
	}
	return r.sum / float64(r.k)
}

// localSearch is AlignCtx's exhaustive search restricted to the ±1
// neighbourhood of the zero shift: the same overlap window, hence the
// same MI at each of its 9 candidates.
func localSearch(ctx context.Context, fixed, moving *img.Gray, o Options) (Shift, float64, error) {
	if err := checkPair(fixed, moving, o); err != nil {
		return Shift{}, 0, err
	}
	nx, ny := o.MaxShift, o.shiftY()
	cands := refineCands(Shift{}, nx, ny)
	mis, err := searchCands(ctx, fixed, moving, o, nx, ny, cands)
	if err != nil {
		return Shift{}, 0, err
	}
	best, bestMI := pickBest(cands, mis)
	return best, bestMI, nil
}

// ResidualDriftCtx estimates the residual alignment error of an aligned
// stack as the mean Residual over its adjacent pairs, none of them
// flagged. A well-aligned stack reports a value near zero. Cancellation
// reaches every pair's candidate search.
func ResidualDriftCtx(ctx context.Context, slices []*img.Gray, o Options) (float64, error) {
	r := NewResidual(o)
	for i := 1; i < len(slices); i++ {
		if _, err := r.Pair(ctx, slices[i-1], slices[i], false); err != nil {
			return 0, err
		}
	}
	return r.Mean(), nil
}

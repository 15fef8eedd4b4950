package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/failpoint"
	"repro/internal/fault"
	"repro/internal/img"
	"repro/internal/register"
	"repro/internal/sem"
	"repro/internal/volume"
)

// gateStream is the slice-quality gate that screens every acquisition
// before denoising: per-slice outlier detection, fault classification
// against the fault models, and repair by interpolation from the
// nearest healthy neighbors. Slices are pushed one at a time in stack
// order and emitted downstream — screened, classified and repaired — as
// soon as their verdict can no longer change, holding only a bounded
// window of raw slices instead of the whole stack. Healthy slices pass
// through by pointer, so a clean stack leaves the gate bit-identical.
//
// The contract is byte-identity with the whole-stack reference gate
// (kept in reference_test.go), repair for repair, counter for
// counter. The detectors are local — each reads its slice, its
// neighbors within a fixed horizon, or the unflagged subsequence walked
// in ascending order — so the incremental gate runs the *same detector
// bodies* in the same order per slice and differs only in when it is
// allowed to run them. Four monotone frontiers stage the finality:
//
//	walk   — detector 4's unflagged-subsequence walk, advanced while
//	         its lookahead (next plus next-next healthy slice, or end
//	         of stack) has arrived;
//	d5     — detector 5 (curtaining) runs on slice d5 once its flag
//	         state is walk-final and the nearest unflagged right
//	         neighbor is known;
//	d6     — detector 6 (MI catch-all) runs on slice d6 once every
//	         pair MI in its local window is settled (d5 has passed
//	         the window, or the stack ended);
//	emit   — slices leave in ascending order once detector-final
//	         (d6 has passed them) and, for flagged slices, once the
//	         nearest unflagged right neighbor needed for repair is
//	         itself final.
//
// Each frontier only consumes state produced by the previous one, so a
// single forward pass over the chain (pump) after every arrival drains
// everything that became ready. Raw slices are released (nilled) once
// no detector or repair can still read them: the last emitted unflagged
// slice is retained as the left repair neighbor, everything older is
// dropped.
//
// One subtlety is hidden in flag bookkeeping: the reference detector 5
// scans for "nearest unflagged neighbor" *before* detector 6 has
// flagged anything, while the incremental gate necessarily interleaves
// the two. flag5 therefore tracks the detector 1-5 view of the stack
// (what the reference detector 5 and MI passes see) separately from
// flagged, the combined view that detector 6, the repairs and the
// report use.
type gateStream struct {
	o          Options
	n          int
	noiseFloor float64
	emit       func(i int, g *img.Gray, repaired bool) error

	raw     []*img.Gray // windowed: nil once released
	w0, h0  int         // slice 0's dimensions, which every slice must share
	feats   []sliceFeatures
	flag5   []fault.Kind // detector 1-5 flags (the reference det-5/MI view)
	flagged []fault.Kind // detector 1-6 flags (the repair/report view)
	metric  []float64

	healthy  []int // detector 4's unflagged subsequence
	t        int   // walk position in healthy
	cleared  []bool
	walkDone bool

	arrived int
	d5      int
	miPtr   int
	d6      int
	emitted int

	mis           []gatePairMI
	lastUnflagged int

	rep RepairReport
}

type gatePairMI struct {
	mi    float64
	valid bool
}

// newGateStream prepares the gate for an n-slice stack. dwellUS is the
// acquisition dwell time the shot-noise floor derives from. emit
// receives each slice with whether the gate flagged and repaired it.
func newGateStream(o Options, n int, dwellUS float64, emit func(int, *img.Gray, bool) error) *gateStream {
	if dwellUS <= 0 {
		dwellUS = sem.DefaultOptions().DwellUS
	}
	s := &gateStream{
		o:             o,
		n:             n,
		noiseFloor:    sem.NoiseSigma(dwellUS),
		emit:          emit,
		raw:           make([]*img.Gray, n),
		feats:         make([]sliceFeatures, n),
		flag5:         make([]fault.Kind, n),
		flagged:       make([]fault.Kind, n),
		metric:        make([]float64, n),
		cleared:       make([]bool, n),
		t:             1,
		lastUnflagged: -1,
		rep:           RepairReport{Checked: n},
	}
	if n >= 2 {
		s.mis = make([]gatePairMI, n-1)
	}
	return s
}

// push feeds slice i (they must arrive in ascending order) and emits
// every slice whose verdict became final. Every slice is validated and
// must share slice 0's dimensions — the detectors compare neighbors
// pixel column by pixel column, and so does everything downstream.
// Stacks below the gate's minimum (n < 3) then pass straight through,
// untouched.
func (s *gateStream) push(i int, g *img.Gray) error {
	if err := failpoint.Inject("core.gate.push"); err != nil {
		return err
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("core: quality gate: %w",
			fmt.Errorf("core: quality gate slice %d: %w", i, err))
	}
	if i == 0 {
		s.w0, s.h0 = g.W, g.H
	} else if g.W != s.w0 || g.H != s.h0 {
		return fmt.Errorf("core: stack: %w", &volume.SliceSizeError{
			Index: i, W: g.W, H: g.H, WantW: s.w0, WantH: s.h0,
		})
	}
	if s.n < 3 {
		return s.emit(i, g, false)
	}
	s.raw[i] = g
	s.feats[i] = features(g)
	// Detectors 1-3 are pure per-slice tests; running them at arrival
	// in detector order (first detector wins) reproduces the reference
	// classification exactly.
	//
	// Detector 1: constant rows — detector dropout. Shot noise makes an
	// exactly-constant row impossible on an acquired slice.
	if f := s.feats[i]; f.constRows > 0 {
		s.flag(i, fault.KindDetectorDropout, float64(f.constRows))
	}
	// Detector 2: saturated area — charging flare. Nominal material
	// intensities stay far below the detector ceiling.
	if f := s.feats[i]; f.satFrac >= gateSatFrac {
		s.flag(i, fault.KindChargingFlare, f.satFrac)
	}
	// Detector 3: intensity variation below the shot-noise floor —
	// dropped slice. Even a featureless oxide slice carries the full
	// beam noise; a skipped frame does not.
	if f := s.feats[i]; f.std < gateDropNoiseFactor*s.noiseFloor {
		s.flag(i, fault.KindDroppedSlice, f.std)
	}
	if s.flag5[i] == fault.KindNone {
		if len(s.healthy) == 0 {
			// The walk never tests its first element.
			s.cleared[i] = true
		}
		s.healthy = append(s.healthy, i)
	}
	s.arrived++
	return s.pump()
}

// finish drains the gate after the last push and validates that every
// slice left. The repair counter is counted unconditionally, so the
// counter key exists even on a clean stack.
func (s *gateStream) finish() error {
	if s.n < 3 {
		return nil
	}
	if err := s.pump(); err != nil {
		return err
	}
	if s.emitted != s.n {
		return fmt.Errorf("core: quality gate: stream stalled at slice %d of %d", s.emitted, s.n)
	}
	s.o.Obs.Count("quality.repaired", int64(len(s.rep.Repairs)))
	return nil
}

// flag records the first verdict for slice i in both flag views, with
// its counter and debug line. Classification is first-detector-wins and
// sequential, so the per-kind detection counters are deterministic for
// every worker count.
func (s *gateStream) flag(i int, k fault.Kind, m float64) {
	if s.flagged[i] != fault.KindNone {
		return
	}
	s.flag5[i], s.flagged[i], s.metric[i] = k, k, m
	s.o.Obs.Count("quality.detect."+k.String(), 1)
	s.o.Obs.Debug("quality gate flagged", "slice", i, "kind", k.String(), "metric", m)
}

// flag6 records a detector-6 verdict: visible to repairs and the
// report, invisible to the detector-5 view (flag5), which the reference
// freezes before its detector 6 runs.
func (s *gateStream) flag6(i int, m float64) {
	if s.flagged[i] != fault.KindNone {
		return
	}
	s.flagged[i], s.metric[i] = fault.KindUnknown, m
	s.o.Obs.Count("quality.detect."+fault.KindUnknown.String(), 1)
	s.o.Obs.Debug("quality gate flagged", "slice", i, "kind", fault.KindUnknown.String(), "metric", m)
}

// pump advances every frontier once, in dependency order. Each stage
// reads only earlier stages' output, so one forward pass drains all
// work that the newest arrival unlocked.
func (s *gateStream) pump() error {
	s.advanceWalk()
	s.advanceDet5()
	if err := s.advanceMI(); err != nil {
		return err
	}
	s.advanceDet6()
	return s.advanceEmit()
}

func gateRowsOf(f sliceFeatures) []float64 { return f.rowMean }
func gateColsOf(f sliceFeatures) []float64 { return f.colNorm }

func (s *gateStream) axisShift(ax func(sliceFeatures) []float64, a, b int) (float64, float64) {
	d, c := profileShift(ax(s.feats[a]), ax(s.feats[b]), gateBurstProbePx)
	return float64(d), c
}

// displacement estimates slice i's offset along one profile axis from
// both adjacent pairs in the unflagged subsequence (p before i, sn and
// then ss after it). A pair votes when its correlation clears
// gateBurstMinCorr: the inbound shift p->i reads the displacement
// directly, the outbound shift i->sn reads its negation (the stack
// returns to the true position after a one-slice excursion). Two guards
// stop the blame from landing on the healthy neighbor of an excursed
// slice, both judged at the lower gateBurstVetoCorr bar: a near-zero
// estimate from the opposite pair contradicts a large vote (the slice
// is demonstrably in place), and an outbound-only vote is dismissed
// when the next slice's own return pair explains the shared shift as
// *its* excursion — that slice is flagged on its own turn instead.
func (s *gateStream) displacement(ax func(sliceFeatures) []float64, p, i, sn, ss int) float64 {
	vIn, cin := s.axisShift(ax, p, i)
	dOut, cout := s.axisShift(ax, i, sn)
	vOut := -dOut
	agree := math.Abs(vIn-vOut) <= 1
	switch {
	case cin >= gateBurstMinCorr:
		if cout >= gateBurstVetoCorr && math.Abs(vOut) <= 1 && !agree {
			return 0
		}
		return vIn
	case cout >= gateBurstMinCorr:
		if cin >= gateBurstVetoCorr && math.Abs(vIn) <= 1 && !agree {
			return 0
		}
		if ss >= 0 && math.Abs(dOut) > 1 {
			dRet, cRet := s.axisShift(ax, sn, ss)
			if cRet >= gateBurstVetoCorr && math.Abs(-dRet-dOut) <= 1 {
				return 0
			}
		}
		return vOut
	}
	return 0
}

// advanceWalk runs detector 4 — profile-offset outlier, drift burst —
// as far as the arrived suffix allows. Each slice i in the *unflagged*
// subsequence (bridging across already-flagged slices, so a burst next
// to another fault is still tested against genuine neighbors) is
// compared locally: the profile shift from the previous healthy slice p
// into i, minus the shift from p to the next healthy slice with i
// skipped. A burst is a one-slice excursion, so the inbound shift is
// large while the skip shift is near zero; a real persistent stage step
// moves both equally and cancels. Both axes are estimated — rows for
// the vertical component, normalized columns for the lateral one. A
// nonzero estimate only counts as motion when the shifted profiles
// match almost perfectly (a pure translation); structural transitions
// along the stack prefer nonzero shifts too, but never that cleanly. A
// flagged slice leaves the subsequence immediately, so the test after a
// detected burst bridges over it instead of mistaking the burst's
// confident return translation for the next slice's fault.
//
// A test at position t needs healthy[t+1] and — to know whether
// healthy[t+2] exists and what it is — either that element or the end
// of the stack; until then the walk waits, so every executed test sees
// exactly the operands the whole-stack walk would.
func (s *gateStream) advanceWalk() {
	if s.walkDone {
		return
	}
	for s.t+1 < len(s.healthy) && (s.t+2 < len(s.healthy) || s.arrived == s.n) {
		p, i, sn := s.healthy[s.t-1], s.healthy[s.t], s.healthy[s.t+1]
		ss := -1
		if s.t+2 < len(s.healthy) {
			ss = s.healthy[s.t+2]
		}
		resY := math.Abs(s.displacement(gateRowsOf, p, i, sn, ss))
		resX := math.Abs(s.displacement(gateColsOf, p, i, sn, ss))
		if resY >= gateBurstDY || resX >= gateBurstDX {
			s.flag(i, fault.KindDriftBurst, math.Max(resY, resX))
			s.healthy = append(s.healthy[:s.t], s.healthy[s.t+1:]...)
			continue
		}
		s.cleared[i] = true
		s.t++
	}
	if s.arrived == s.n && s.t+1 >= len(s.healthy) {
		s.walkDone = true
	}
}

// det4Final reports that detector 4 can no longer flag slice i: it is
// already flagged, the walk passed it, or the walk finished. (The walk
// only removes elements at or after its position, so a cleared slice
// stays cleared.)
func (s *gateStream) det4Final(i int) bool {
	if i >= s.arrived {
		return false
	}
	return s.flag5[i] != fault.KindNone || s.cleared[i] || s.walkDone
}

// advanceDet5 runs detector 5 (curtaining) on each slice in ascending
// order once its own flag state is walk-final and its nearest unflagged
// right neighbor is known — i.e. every right slice up to and including
// the first unflagged one is walk-final too. Left neighbors are final
// by construction (d5 already passed them).
func (s *gateStream) advanceDet5() {
	for s.d5 < s.n && s.det5Ready(s.d5) {
		i := s.d5
		if s.flag5[i] == fault.KindNone {
			s.det5At(i)
		}
		s.d5++
	}
}

func (s *gateStream) det5Ready(i int) bool {
	if !s.det4Final(i) {
		return false
	}
	if s.flag5[i] != fault.KindNone {
		return true
	}
	for j := i + 1; j < s.n; j++ {
		if !s.det4Final(j) {
			return false
		}
		if s.flag5[j] == fault.KindNone {
			return true
		}
	}
	return true
}

// det5At is detector 5 — column-mean attenuation against the nearest
// unflagged neighbor on each side, curtaining — against the detector
// 1-5 flag view. The elementwise *minimum* of the neighbor profiles is
// the reference, so a structure legitimately ending between two slices
// (present on one side only) never counts as damage.
func (s *gateStream) det5At(i int) {
	ref := neighborColMin(s.feats, s.flag5, i)
	if ref == nil {
		return
	}
	damaged, cols := 0, 0
	for x := range ref {
		if ref[x] < gateCurtainMinCol {
			continue
		}
		cols++
		if s.feats[i].colNorm[x] < gateCurtainResid*ref[x] {
			damaged++
		}
	}
	if cols == 0 {
		return
	}
	if frac := float64(damaged) / float64(cols); frac >= gateCurtainColFrac {
		s.flag(i, fault.KindCurtaining, frac)
	}
}

// advanceMI settles pair MIs in ascending order. Pair j's validity
// depends on the detector 1-5 flags of j and j+1, final once d5 has
// passed j+1. Running before advanceDet6 in pump keeps the raw-slice
// reads ahead of detector 6 exactly as in the reference (MI pass
// between detectors 5 and 6).
func (s *gateStream) advanceMI() error {
	for s.miPtr < s.n-1 && s.d5 >= s.miPtr+2 {
		j := s.miPtr
		if s.flag5[j] == fault.KindNone && s.flag5[j+1] == fault.KindNone {
			mi, err := register.MutualInformation(s.raw[j], s.raw[j+1], gateMIBins)
			if err != nil {
				return fmt.Errorf("core: quality gate: %w",
					fmt.Errorf("core: quality gate pair %d: %w", j, err))
			}
			s.mis[j] = gatePairMI{mi: mi, valid: true}
			s.o.Obs.Count("quality.mi_evals", 1)
		}
		s.miPtr++
	}
	return nil
}

// advanceDet6 runs the MI catch-all on each slice in ascending order
// once every pair in its local window [i-1-gateMIWindow,
// i+gateMIWindow] is settled: d5 (and hence miPtr) has passed the
// window's right edge, or the stack ended.
func (s *gateStream) advanceDet6() {
	for s.d6 < s.n && s.d6 < s.d5 && (s.d5 == s.n || s.d5 >= s.d6+gateMIWindow+2) {
		i := s.d6
		if s.flagged[i] == fault.KindNone {
			s.det6At(i)
		}
		s.d6++
	}
}

// det6At is detector 6, the MI catch-all for any anomaly that slipped
// the models. The floor is relative to the *local* median pair MI —
// valid pairs within gateMIWindow of the slice, excluding the slice's
// own pairs — because the natural MI level varies hugely along the
// stack (featureless regions share only noise).
func (s *gateStream) det6At(i int) {
	var local []float64
	for j := i - 1 - gateMIWindow; j <= i+gateMIWindow; j++ {
		if j < 0 || j >= s.n-1 || j == i-1 || j == i || !s.mis[j].valid {
			continue
		}
		local = append(local, s.mis[j].mi)
	}
	if len(local) < 4 {
		return
	}
	sort.Float64s(local)
	floor := gateMIFloor * local[len(local)/2]
	low, pairs := true, 0
	worst := math.Inf(1)
	for _, j := range []int{i - 1, i} {
		if j < 0 || j >= s.n-1 || !s.mis[j].valid {
			continue
		}
		pairs++
		if s.mis[j].mi >= floor {
			low = false
		}
		if s.mis[j].mi < worst {
			worst = s.mis[j].mi
		}
	}
	if pairs > 0 && low {
		s.flag6(i, worst)
	}
}

// advanceEmit releases detector-final slices downstream in ascending
// order. Unflagged slices pass through by pointer; flagged slices are
// repaired by interpolating from the nearest unflagged neighbors — the
// left one is the last unflagged slice emitted (retained for this
// purpose), the right one must lie inside the detector-final prefix or
// be provably absent (d6 == n) before the repair can run.
func (s *gateStream) advanceEmit() error {
	for s.emitted < s.d6 {
		i := s.emitted
		if s.flagged[i] == fault.KindNone {
			g := s.raw[i]
			if s.lastUnflagged >= 0 {
				s.raw[s.lastUnflagged] = nil
			}
			s.lastUnflagged = i
			if err := s.emit(i, g, false); err != nil {
				return err
			}
			s.emitted++
			continue
		}
		j := s.lastUnflagged
		k := i + 1
		for k < s.n && k < s.d6 && s.flagged[k] != fault.KindNone {
			k++
		}
		if k < s.n && k == s.d6 {
			// The nearest unflagged right neighbor is not final yet.
			return nil
		}
		action := "none"
		var out *img.Gray
		switch {
		case j >= 0 && k < s.n:
			w := float64(k-i) / float64(k-j)
			g := img.New(s.raw[j].W, s.raw[j].H)
			for p := range g.Pix {
				g.Pix[p] = w*s.raw[j].Pix[p] + (1-w)*s.raw[k].Pix[p]
			}
			out = g
			action = fmt.Sprintf("interp(%d,%d)", j, k)
		case j >= 0:
			out = s.raw[j].Clone()
			action = fmt.Sprintf("copy(%d)", j)
		case k < s.n:
			out = s.raw[k].Clone()
			action = fmt.Sprintf("copy(%d)", k)
		default:
			// Every slice is flagged: nothing healthy to repair from.
			out = s.raw[i]
		}
		s.rep.Repairs = append(s.rep.Repairs, SliceRepair{
			Index: i, Kind: s.flagged[i], Metric: s.metric[i], Action: action,
		})
		s.o.Obs.Debug("quality gate repaired", "slice", i, "kind", s.flagged[i].String(), "action", action)
		s.raw[i] = nil
		if err := s.emit(i, out, true); err != nil {
			return err
		}
		s.emitted++
	}
	return nil
}

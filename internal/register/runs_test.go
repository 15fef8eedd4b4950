package register

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/chipgen"
	"repro/internal/chips"
	"repro/internal/denoise"
	"repro/internal/img"
	"repro/internal/sem"
)

// forcedRuns builds the run form of every row of rows, all of one
// length, whatever its run count.
func forcedRuns[T uint8 | uint16](rows [][]T) *rowRuns {
	r := &rowRuns{}
	var pix []T
	for _, row := range rows {
		n := int32(1)
		for x := 1; x < len(row); x++ {
			if row[x] != row[x-1] {
				n++
			}
		}
		r.n = append(r.n, n)
		pix = append(pix, row...)
	}
	buildRuns(r, pix, len(rows[0]), 1<<30, 0)
	return r
}

// laneSums folds the four interleaved lanes of a joint histogram.
func laneSums(j []int32) []int32 {
	s := make([]int32, len(j)/4)
	for b := range s {
		s[b] = j[4*b] + j[4*b+1] + j[4*b+2] + j[4*b+3]
	}
	return s
}

// checkRow counts one window row both ways and fails on any difference:
// frow is the fixed row in window columns (bins premultiplied by bins),
// mimg the whole moving image row, whose window starts at column s.
func checkRow(t *testing.T, name string, bins int, frow []uint16, mimg []uint8, s int) {
	t.Helper()
	fr := forcedRuns([][]uint16{frow})
	mr := forcedRuns([][]uint8{mimg})
	pix := make([]int32, 4*bins*bins)
	runs := make([]int32, 4*bins*bins)
	countPixels(pix, frow, mimg[s:s+len(frow)])
	fe, fb := fr.runs(0)
	me, mb := mr.runs(0)
	countRuns(runs, fe, fb, me, mb, int32(s))
	want, got := laneSums(pix), laneSums(runs)
	for b := range want {
		if got[b] != want[b] {
			t.Fatalf("%s: joint bin %d counts %d from runs, %d from pixels", name, b, got[b], want[b])
		}
	}
}

// TestCountRunsMatchesPixels pins countRuns to countPixels on synthetic
// rows: uniformly random bins (a run per pixel or so), piecewise-constant
// rows with runs of 1 to 40 pixels, and constant rows, at every window
// start the 9x5 search uses and at widths down to one pixel.
func TestCountRunsMatchesPixels(t *testing.T) {
	const bins = 32
	rng := rand.New(rand.NewSource(29))
	random := func(n int) []int { // bins drawn per pixel
		r := make([]int, n)
		for i := range r {
			r[i] = rng.Intn(bins)
		}
		return r
	}
	piecewise := func(n int) []int { // runs of 1 to 40 pixels
		r := make([]int, 0, n)
		for len(r) < n {
			b, l := rng.Intn(bins), 1+rng.Intn(40)
			for i := 0; i < l && len(r) < n; i++ {
				r = append(r, b)
			}
		}
		return r
	}
	constant := func(n int) []int { return make([]int, n) }
	gens := map[string]func(int) []int{"random": random, "piecewise": piecewise, "constant": constant}
	for fname, fgen := range gens {
		for mname, mgen := range gens {
			for _, width := range []int{1, 2, 3, 7, 64, 301} {
				for s := 0; s <= 10; s++ {
					frow := make([]uint16, width)
					for x, b := range fgen(width) {
						frow[x] = uint16(b * bins)
					}
					mimg := make([]uint8, width+10)
					for x, b := range mgen(len(mimg)) {
						mimg[x] = uint8(b)
					}
					checkRow(t, fname+"/"+mname, bins, frow, mimg, s)
				}
			}
		}
	}
}

// b4Pair images stack slices i and i+1 of chip B4 as the pipeline does
// by default at the 12 us dwell extract uses (4 nm voxels, two units)
// and denoises them with the pipeline's Chambolle settings.
func b4Pair(t *testing.T, i int) (*img.Gray, *img.Gray) {
	t.Helper()
	chip := chips.ByID("B4")
	cfg := chipgen.DefaultConfig(chip)
	cfg.Units = 2
	region, err := chipgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	planes, err := chipgen.NewPlaneSource(region.Cell, region.Cell.Bounds(), 4)
	if err != nil {
		t.Fatal(err)
	}
	so := sem.DefaultOptions()
	so.DriftSigmaPx, so.DwellUS, so.Detector = 0.5, 12, chip.Detector
	do := denoise.DefaultOptions()
	do.Lambda = 25
	var pair []*img.Gray
	errDone := errors.New("pair acquired")
	err = sem.StreamStackCtx(context.Background(), planes, so, func(k, _ int, g *img.Gray, _ [2]float64) error {
		if k < i {
			return nil
		}
		d, err := denoise.ChambolleCtx(context.Background(), g, do)
		if err != nil {
			return err
		}
		if pair = append(pair, d); len(pair) == 2 {
			return errDone
		}
		return nil
	})
	if err != errDone {
		t.Fatalf("acquiring B4 slices %d and %d: %v", i, i+1, err)
	}
	return pair[0], pair[1]
}

// TestRunFormMatchesPixelsB4 counts every row of all 45 candidates of a
// real mid-stack B4 pair (9x5 window, 32 bins) both ways, with the run
// forms built for every row, and requires the pair's rows to fall on
// both sides of the runCost threshold, so that the production choice is
// exercised each way; the production search must then match the crop
// reference for every candidate.
func TestRunFormMatchesPixelsB4(t *testing.T) {
	fixed, moving := b4Pair(t, 40)
	o := Options{MaxShift: 4, MaxShiftY: 2, Bins: 32, Margin: 1, Workers: 1}
	cands := fullWindow(o.MaxShift, o.shiftY())
	k := newMIKernel(fixed, moving, o.MaxShift, o.shiftY(), o.Margin, o.Bins)
	defer k.release()
	k.bindCands(cands)
	width := k.x1 - k.x0
	var frows [][]uint16
	for r := 0; r < k.y1-k.y0; r++ {
		frows = append(frows, k.fixedBins[r*width:(r+1)*width])
	}
	fr := forcedRuns(frows)
	pix := make([]int32, 4*o.Bins*o.Bins)
	runs := make([]int32, 4*o.Bins*o.Bins)
	var runRows, pixRows int
	for t0 := 0; t0 < len(k.keys); t0 += maxTables {
		t1 := min(t0+maxTables, len(k.keys))
		for tb := t0; tb < t1; tb++ {
			k.binTable(tb)
		}
		for _, i := range k.byTable[k.first[t0]:k.first[t1]] {
			c := cands[i]
			tab := &k.tables[k.candTable[i]%maxTables]
			w := moving.W
			var mrows [][]uint8
			for y := 0; y < moving.H; y++ {
				mrows = append(mrows, tab.pix[y*w:(y+1)*w])
			}
			mr := forcedRuns(mrows)
			s := k.x0 - c.DX
			for y := k.y0; y < k.y1; y++ {
				r, my := y-k.y0, y-c.DY
				if tab.hasRuns && runsFit(k.fixedRuns.n[r]+tab.runs.n[my], width) {
					runRows++
				} else {
					pixRows++
				}
				clear(pix)
				clear(runs)
				countPixels(pix, frows[r], mrows[my][s:s+width])
				fe, fb := fr.runs(r)
				me, mb := mr.runs(my)
				countRuns(runs, fe, fb, me, mb, int32(s))
				want, got := laneSums(pix), laneSums(runs)
				for b := range want {
					if got[b] != want[b] {
						t.Fatalf("(%d,%d) row %d: joint bin %d counts %d from runs, %d from pixels",
							c.DX, c.DY, y, b, got[b], want[b])
					}
				}
			}
		}
	}
	if runRows == 0 || pixRows == 0 {
		t.Errorf("B4 slices 40/41: %d candidate rows take the run form and %d the pixel loop, want both",
			runRows, pixRows)
	}
	_, mis := searchMIs(t, fixed, moving, o)
	for i, c := range cands {
		if want := refOverlapMI(t, fixed, moving, c.DX, c.DY, o); mis[i] != want {
			t.Fatalf("(%d,%d): kernel MI %v != reference %v", c.DX, c.DY, mis[i], want)
		}
	}
	t.Logf("B4 slices 40/41: %d of %d candidate rows take the run form", runRows, runRows+pixRows)
}

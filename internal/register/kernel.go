package register

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync"

	"repro/internal/img"
)

// maxBins is the largest Options.Bins the kernel's narrow index types
// hold: a moving bin index (at most bins-1) fits a uint8, and a fixed
// bin index premultiplied by bins (at most (bins-1)·bins) fits a uint16.
const maxBins = 256

// runCost is the cost of one run in countRuns, in pixel increments of
// countPixels: a row is counted from its run forms when its fixed and
// moving runs together, times runCost, are fewer than the window's
// width. Measured over every candidate row of B4 pairs 0/1, 40/41, 96/97
// and 150/151 at 12 us (9x5 window, 32 bins), with the run forms built
// for every row: a run costs 3.2 to 5.0 pixel increments (about 5.5 ns
// against 1.5 ns), and the run form is faster than the pixel loop up to
// about one run per 3.8 pixels of window.
const runCost = 4

// minRunCands is the fewest candidates a bin table must serve for its
// rows to be put in run form: the build is paid once per table and
// saved once per candidate. B4 slice 150 at 12 us binds 24 tables for
// its 45 candidates, 20 of them read by one candidate; building every
// table's run forms made its search slower than the pixel loop alone
// (10.4 against 8.4 ms, best of four alternating runs), building only
// those of tables read by four or more brought it to 7.7 against
// 8.7 ms. The 9x5 search's usual tables serve 9 or 27 candidates.
const minRunCands = 4

// maxTables bounds how many moving-bin tables a search keeps live. A
// search whose candidates have more distinct window extrema evaluates in
// batches of at most this many tables, so memory stays bounded however
// the extrema scatter (typically a search has a handful).
const maxTables = 16

// miKernel evaluates the mutual information between a fixed and a moving
// image at integer candidate shifts, directly on the overlap window via
// index arithmetic. It replaces the original Crop+Statistics+histogram
// path with the exact same arithmetic, so MI values are bit-identical to
// MutualInformation over the two crops — only the allocations and the
// repeated work are gone:
//
//   - the overlap window in fixed coordinates is the same for every
//     candidate, so the fixed region's intensity range and per-pixel bin
//     indices are computed once per kernel (per search), not per
//     candidate;
//   - every candidate's moving-window extrema come from one pass over
//     the moving image per search (see candExtrema), and the image is
//     binned once per distinct extrema pair into a read-only table the
//     workers share (see bindCands);
//   - the joint histogram is integer counts in a per-worker scratch
//     buffer (miScratch), reused across candidates;
//   - a row whose fixed and moving rows hold few runs of equal bins
//     (piecewise-constant slices at long dwell) is counted run by run
//     from their run forms (rowRuns, countRuns) instead of pixel by
//     pixel; both count the same integers.
//
// Kernels are pooled, so a warm search allocates no index tables
// (pinned by TestSearchBinTablesAllocFree), and steady-state candidate
// evaluation performs zero heap allocations (TestMIKernelAllocFree).
type miKernel struct {
	moving *img.Gray
	bins   int
	// Overlap window [x0,x1)×[y0,y1) in fixed coordinates; the moving
	// window for candidate (dx,dy) is the same rectangle shifted by
	// (-dx,-dy).
	x0, y0, x1, y1 int
	n              float64 // pixel count of the window
	// fixedBins holds the fixed window's per-pixel bin indices, row-major
	// over the window, each multiplied by bins: the offset of the pixel's
	// row in the joint histogram. fixedRuns holds the same rows in run
	// form, in window columns, and minFixedRuns is the fewest runs of any
	// of them.
	fixedBins    []uint16
	fixedRuns    rowRuns
	minFixedRuns int32

	// Per-search candidate binding (bindCands): each candidate's window
	// extrema, the distinct extrema pairs in order of first appearance,
	// each candidate's pair index, and the candidate indices grouped by
	// pair (byTable[first[t]:first[t+1]] are the candidates of pair t).
	lo, hi    []float64
	keys      [][2]float64
	candTable []int
	byTable   []int
	first     []int
	// tables[t % maxTables] is the moving image binned under keys[t]
	// while pair t's batch is evaluated.
	tables []binTab

	// Extrema scratch, one W-wide row each: the column extrema of the
	// rows every candidate window shares, the column extrema of one dy's
	// rows, and the block prefix/suffix extrema of the sliding reduction.
	coreMin, coreMax []float64
	colMin, colMax   []float64
	preMin, preMax   []float64
	sufMin, sufMax   []float64
}

// kernelPool recycles kernels across searches: a stack alignment runs a
// search per slice pair (and per widening retry), and a fresh kernel
// would allocate its fixed-bin and moving-bin tables every time.
var kernelPool sync.Pool

// newMIKernel returns a pooled kernel for candidates within
// [-nx,nx]×[-ny,ny], with the fixed window binned. The caller has
// validated the geometry: the images are equal-size and large enough
// that the window [nx+margin, W-nx-margin) is at least 4 pixels wide
// (and likewise in Y), which also guarantees every candidate shift keeps
// the moving window in bounds; and 2 <= bins <= maxBins. Release the
// kernel with release once the search is done.
func newMIKernel(fixed, moving *img.Gray, nx, ny, margin, bins int) *miKernel {
	k, _ := kernelPool.Get().(*miKernel)
	if k == nil {
		k = &miKernel{}
	}
	mx, my := nx+margin, ny+margin
	k.moving, k.bins = moving, bins
	k.x0, k.y0, k.x1, k.y1 = mx, my, fixed.W-mx, fixed.H-my
	k.n = float64((k.x1 - k.x0) * (k.y1 - k.y0))
	lo, hi := fixed.MinMaxIn(k.x0, k.y0, k.x1, k.y1)
	width := k.x1 - k.x0
	k.fixedBins = resized(k.fixedBins, width*(k.y1-k.y0))
	k.fixedRuns.n = resized(k.fixedRuns.n, k.y1-k.y0)[:0]
	k.minFixedRuns = math.MaxInt32
	fi := 0
	for y := k.y0; y < k.y1; y++ {
		row := fixed.Pix[y*fixed.W+k.x0 : y*fixed.W+k.x1]
		n, prev := int32(0), -1
		for _, v := range row {
			b := img.BinIndex(v, lo, hi, bins) * bins
			k.fixedBins[fi] = uint16(b)
			n += isNew(b, prev)
			prev = b
			fi++
		}
		k.fixedRuns.n = append(k.fixedRuns.n, n)
		k.minFixedRuns = min(k.minFixedRuns, n)
	}
	buildRuns(&k.fixedRuns, k.fixedBins, width, 0, width, width, 1) // a moving row has a run
	w := moving.W
	for _, buf := range []*[]float64{&k.coreMin, &k.coreMax, &k.colMin, &k.colMax,
		&k.preMin, &k.preMax, &k.sufMin, &k.sufMax} {
		*buf = resized(*buf, w)
	}
	return k
}

// release returns the kernel to the pool, dropping its image reference
// so a pooled kernel never keeps a slice alive.
func (k *miKernel) release() {
	k.moving = nil
	kernelPool.Put(k)
}

// resized returns buf resliced to n elements, reallocating only when its
// capacity is too small.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// bindCands prepares the kernel to evaluate cands: it computes every
// candidate's window extrema, collects the distinct (lo, hi) pairs in
// order of first appearance, and groups the candidates by pair. The
// binning itself happens per batch (binTable), so at most maxTables
// tables are live at once.
func (k *miKernel) bindCands(cands []Shift) {
	n := len(cands)
	k.lo, k.hi = resized(k.lo, n), resized(k.hi, n)
	k.candExtrema(cands)
	k.keys = k.keys[:0]
	k.candTable = resized(k.candTable, n)
	for i := range cands {
		t := 0
		for t < len(k.keys) && (k.keys[t][0] != k.lo[i] || k.keys[t][1] != k.hi[i]) {
			t++
		}
		if t == len(k.keys) {
			k.keys = append(k.keys, [2]float64{k.lo[i], k.hi[i]})
		}
		k.candTable[i] = t
	}
	// Group the candidate indices by pair, ascending within a pair.
	k.byTable = k.byTable[:0]
	k.first = append(k.first[:0], 0)
	for t := range k.keys {
		for i, ct := range k.candTable {
			if ct == t {
				k.byTable = append(k.byTable, i)
			}
		}
		k.first = append(k.first, len(k.byTable))
	}
	nt := len(k.keys)
	if len(k.tables) < min(nt, maxTables) {
		k.tables = append(k.tables, make([]binTab, min(nt, maxTables)-len(k.tables))...)
	}
}

// binTab is one batch slot: the moving image binned under one extrema
// pair (pix, image-sized, binned only over the rectangle the pair's
// candidates read) and, when hasRuns is set, the rectangle's rows in run
// form, in image columns, where a row has few enough runs to qualify
// against the fixed row with the fewest. runs row r is image row r0+r.
type binTab struct {
	pix     []uint8
	hasRuns bool
	r0      int
	runs    rowRuns
}

// binTable bins the moving image under pair t's extrema into its batch
// slot, over the rows and columns that the pair's candidates (cands
// indexed by byTable) read: their moving windows' union. The expression
// is the manual img.BinIndex inline the joint-histogram loop has always
// used: window pixels get the exact reference index, and the pixels
// left unbinned are read by no candidate of the pair.
func (k *miKernel) binTable(t int, cands []Shift) {
	tab := &k.tables[t%maxTables]
	buf := resized(tab.pix, len(k.moving.Pix))
	tab.pix = buf
	bins := k.bins
	mlo, mhi := k.keys[t][0], k.keys[t][1]
	scale := float64(bins)
	w, width := k.moving.W, k.x1-k.x0
	mine := k.byTable[k.first[t]:k.first[t+1]]
	lo, hi := cands[mine[0]], cands[mine[0]]
	for _, i := range mine[1:] {
		c := cands[i]
		lo = Shift{min(lo.DX, c.DX), min(lo.DY, c.DY)}
		hi = Shift{max(hi.DX, c.DX), max(hi.DY, c.DY)}
	}
	r0, r1 := k.y0-hi.DY, k.y1-lo.DY
	c0, c1 := k.x0-hi.DX, k.x1-lo.DX
	tab.r0 = r0
	tab.hasRuns = len(mine) >= minRunCands
	tab.runs.n = resized(tab.runs.n, r1-r0)[:0]
	for y := r0; y < r1; y++ {
		row := buf[y*w+c0 : y*w+c1]
		if mhi <= mlo {
			clear(row)
		} else {
			for x, v := range k.moving.Pix[y*w+c0 : y*w+c1] {
				kb := int(scale * (v - mlo) / (mhi - mlo))
				if kb < 0 {
					kb = 0
				} else if kb >= bins {
					kb = bins - 1
				}
				row[x] = uint8(kb)
			}
		}
		if tab.hasRuns {
			tab.runs.n = append(tab.runs.n, runCount(row))
		}
	}
	if tab.hasRuns {
		buildRuns(&tab.runs, buf[r0*w:], w, c0, c1, width, k.minFixedRuns)
	}
}

// runCount returns the number of runs of equal bins in row. It compares
// eight neighbouring pairs per step: the XOR of the row read at x and at
// x-1 has a nonzero byte exactly where a run starts.
func runCount(row []uint8) int32 {
	const low = 0x0101010101010101
	n, x := 1, 1
	for ; x+8 <= len(row); x += 8 {
		v := binary.LittleEndian.Uint64(row[x:]) ^ binary.LittleEndian.Uint64(row[x-1:])
		v |= v >> 4 // fold each byte into its low bit
		v |= v >> 2
		v |= v >> 1
		n += bits.OnesCount64(v & low)
	}
	for ; x < len(row); x++ {
		if row[x] != row[x-1] {
			n++
		}
	}
	return int32(n)
}

// isNew is 1 when b differs from prev and 0 otherwise, without a branch
// (a run count's branch would mispredict on every noisy row).
func isNew(b, prev int) int32 {
	d := int32(b - prev)
	return int32(uint32(d|-d) >> 31)
}

// rowRuns holds rows of bin indices in run form: each run as its
// exclusive end column and its bin. n[r] is row r's run count; the row's
// runs are end[off[r]:off[r+1]] and bin[off[r]:off[r+1]] when it was
// built, and off[r+1] == off[r] when it was not.
type rowRuns struct {
	n, off []int32
	end    []int32
	bin    []uint16
}

// runs returns row i's run form.
func (r *rowRuns) runs(i int) ([]int32, []uint16) {
	a, b := r.off[i], r.off[i+1]
	return r.end[a:b], r.bin[a:b]
}

// runsFit reports whether a window row whose fixed and moving rows hold
// runs runs between them is cheaper to count by countRuns than by
// countPixels, in a window of the given width.
func runsFit(runs int32, width int) bool {
	return int(runs)*runCost < width
}

// buildRuns puts the rows of pix (row y is pix[y*stride+c0 : y*stride+c1],
// its run count in r.n[y]) in run form, with run ends in pix's columns,
// where they can take countRuns in a window of the given width, other
// being the fewest runs the rows they pair with can have; rows of noisy,
// short-dwell slices never qualify and cost only their count. The
// storage holds exactly the runs kept and is reused.
func buildRuns[T uint8 | uint16](r *rowRuns, pix []T, stride, c0, c1, width int, other int32) {
	total := 0
	for _, n := range r.n {
		if runsFit(n+other, width) {
			total += int(n)
		}
	}
	r.end, r.bin = resized(r.end, total), resized(r.bin, total)
	r.off = append(resized(r.off, len(r.n)+1)[:0], 0)
	o := int32(0)
	for y, n := range r.n {
		if runsFit(n+other, width) {
			// Write run i's end at every column and step i past it only
			// where the next run starts: no data-dependent branch.
			row := pix[y*stride+c0 : y*stride+c1]
			end, bin := r.end[o:o+n], r.bin[o:o+n]
			i := int32(0)
			for x := 1; x < len(row); x++ {
				end[i], bin[i] = int32(c0+x), uint16(row[x-1])
				i += isNew(int(row[x]), int(row[x-1]))
			}
			end[n-1], bin[n-1] = int32(c1), uint16(row[len(row)-1])
			o += n
		}
		r.off = append(r.off, o)
	}
}

// candExtrema fills k.lo[i], k.hi[i] with the moving window's min and
// max for cands[i]. Every candidate window at a given dy covers the same
// rows, and the rows [y0-dyMin, y1-dyMax) are covered at every dy: their
// column extrema are reduced once, and each dy folds in only its few
// extra rows. The windows at one dy are then equal-width column ranges
// of that dy's column extrema, reduced by a block prefix/suffix sweep
// (van Herk/Gil-Werman) in O(W) for all of them together. Over NaN-free
// pixels min and max are order-independent — the order can change only
// the sign of a zero extremum, and the bin expression maps ±0
// identically — so the extrema bin every pixel exactly as
// img.MinMaxIn's would.
func (k *miKernel) candExtrema(cands []Shift) {
	dyMin, dyMax := cands[0].DY, cands[0].DY
	for _, c := range cands {
		dyMin, dyMax = min(dyMin, c.DY), max(dyMax, c.DY)
	}
	coreLo, coreHi := k.y0-dyMin, k.y1-dyMax
	shared := coreLo < coreHi
	if shared {
		resetExtrema(k.coreMin, k.coreMax)
		k.foldRows(k.coreMin, k.coreMax, coreLo, coreHi)
	}
	width := k.x1 - k.x0
	for dy := dyMin; dy <= dyMax; dy++ {
		present := false
		for _, c := range cands {
			if c.DY == dy {
				present = true
				break
			}
		}
		if !present {
			continue
		}
		if shared {
			copy(k.colMin, k.coreMin)
			copy(k.colMax, k.coreMax)
			k.foldRows(k.colMin, k.colMax, k.y0-dy, coreLo)
			k.foldRows(k.colMin, k.colMax, coreHi, k.y1-dy)
		} else {
			resetExtrema(k.colMin, k.colMax)
			k.foldRows(k.colMin, k.colMax, k.y0-dy, k.y1-dy)
		}
		k.blockExtrema(width)
		for i, c := range cands {
			if c.DY != dy {
				continue
			}
			// The window [s, s+width) spans at most two blocks: the
			// suffix from s to its block's end and the prefix from the
			// next block's start to s+width-1.
			s, e := k.x0-c.DX, k.x1-c.DX-1
			k.lo[i] = min2(k.sufMin[s], k.preMin[e])
			k.hi[i] = max2(k.sufMax[s], k.preMax[e])
		}
	}
}

// resetExtrema sets a min/max row pair to the identities of the fold.
func resetExtrema(cmin, cmax []float64) {
	for x := range cmin {
		cmin[x] = math.Inf(1)
		cmax[x] = math.Inf(-1)
	}
}

// foldRows folds the moving image's rows [r0, r1) into the column
// extrema cmin/cmax.
func (k *miKernel) foldRows(cmin, cmax []float64, r0, r1 int) {
	w := k.moving.W
	for y := r0; y < r1; y++ {
		row := k.moving.Pix[y*w : (y+1)*w]
		for x, v := range row {
			if v < cmin[x] {
				cmin[x] = v
			}
			if v > cmax[x] {
				cmax[x] = v
			}
		}
	}
}

// blockExtrema splits the column extrema into blocks of the given width
// and computes, per column, the extrema from its block's start (pre*)
// and to its block's end (suf*).
func (k *miKernel) blockExtrema(width int) {
	w := len(k.colMin)
	for x := 0; x < w; x++ {
		if x%width == 0 {
			k.preMin[x], k.preMax[x] = k.colMin[x], k.colMax[x]
		} else {
			k.preMin[x] = min2(k.preMin[x-1], k.colMin[x])
			k.preMax[x] = max2(k.preMax[x-1], k.colMax[x])
		}
	}
	for x := w - 1; x >= 0; x-- {
		if x == w-1 || x%width == width-1 {
			k.sufMin[x], k.sufMax[x] = k.colMin[x], k.colMax[x]
		} else {
			k.sufMin[x] = min2(k.sufMin[x+1], k.colMin[x])
			k.sufMax[x] = max2(k.sufMax[x+1], k.colMax[x])
		}
	}
}

// min2 and max2 combine extrema with foldRows's comparisons.
func min2(a, b float64) float64 {
	if b < a {
		return b
	}
	return a
}

func max2(a, b float64) float64 {
	if b > a {
		return b
	}
	return a
}

// miScratch is one worker's reusable evaluation state: four interleaved
// joint histograms, the joint probabilities, the marginal accumulators
// and the list of non-empty bins (each as its bin index << 8 | its row).
// An eval reinitializes the histograms and marginals and writes every p
// and the list before reading them, so sharing a scratch across
// candidates (but never across concurrent workers) cannot perturb
// results.
type miScratch struct {
	joint  []int32
	p      []float64
	pa, pb []float64
	nz     []uint32
}

// scratchPool recycles scratch across searches: a search needs one
// scratch per worker, and a stack alignment runs a search per slice
// pair, so fresh scratch would allocate per pair and per worker.
var scratchPool sync.Pool

// getScratch returns a pooled scratch sized for this kernel.
func (k *miKernel) getScratch() *miScratch {
	s, _ := scratchPool.Get().(*miScratch)
	if s == nil {
		s = &miScratch{}
	}
	s.joint = resized(s.joint, 4*k.bins*k.bins)
	s.p = resized(s.p, k.bins*k.bins)
	s.pa = resized(s.pa, k.bins)
	s.pb = resized(s.pb, k.bins)
	s.nz = resized(s.nz, k.bins*k.bins)
	return s
}

// eval computes MI at candidate shift (dx, dy), whose moving window is
// binned in tab, using s as scratch. The result is bit-identical to
// MutualInformation over the fixed and (shifted) moving crops: extrema,
// bin indices, histogram counts and the marginal/MI accumulation orders
// all match the reference.
func (k *miKernel) eval(dx, dy int, tab *binTab, s *miScratch) float64 {
	bins := k.bins
	// Joint histogram over the overlap: each row counted pixel by pixel
	// (countPixels) or, when its fixed and moving rows hold few runs, run
	// by run (countRuns). Both count the same integers, and integer
	// counts do not depend on the order they are added in.
	j := s.joint
	clear(j)
	w := k.moving.W
	width := k.x1 - k.x0
	s0 := k.x0 - dx // the moving window's first column
	for y := k.y0; y < k.y1; y++ {
		r, my := y-k.y0, y-dy
		if tab.hasRuns && runsFit(k.fixedRuns.n[r]+tab.runs.n[my-tab.r0], width) {
			fe, fb := k.fixedRuns.runs(r)
			me, mb := tab.runs.runs(my - tab.r0)
			countRuns(j, fe, fb, me, mb, int32(s0))
			continue
		}
		countPixels(j, k.fixedBins[r*width:(r+1)*width], tab.pix[my*w+s0:my*w+s0+width])
	}
	// Fold the lanes in place: bin b's total lands in j[b], which bins
	// below b have already read. Then marginals and MI in the reference
	// accumulation order: pa[i] sums over ascending j, pb[j] over
	// ascending i, and the MI terms add in the same row-major histogram
	// order. Every bin's p = count/n is divided, into s.p: an empty bin's
	// p is +0, the marginals start at +0 and every term is >= +0, so
	// adding +0 never changes them. The non-empty bins are recorded
	// without a branch (a slot is always written, and kept only when the
	// count is nonzero), and the MI loop runs over them in ascending
	// order: the reference adds no term for an empty bin, and a
	// non-empty bin has p > 0, hence pa[i] > 0 and pb[j] > 0, so each
	// of them adds its term.
	p := s.p[:bins*bins]
	pa, pb := s.pa[:bins], s.pb[:bins]
	nz := s.nz[:bins*bins]
	clear(pb)
	m := 0
	for i := range pa {
		var ra float64
		row := i * bins
		for jb := range pb {
			l := j[4*(row+jb) : 4*(row+jb)+4]
			c := l[0] + l[1] + l[2] + l[3]
			v := float64(c) / k.n
			p[row+jb] = v
			ra += v
			pb[jb] += v
			nz[m] = uint32(row+jb)<<8 | uint32(i)
			m += int(isNew(int(c), 0))
		}
		pa[i] = ra
	}
	var mi float64
	for _, e := range nz[:m] {
		b, i := int(e>>8), int(e&0xff)
		v := p[b]
		mi += v * math.Log(v/(pa[i]*pb[b-i*bins]))
	}
	return mi
}

// countPixels adds one row's pixel pairs to the joint histogram j,
// counted into four sub-histograms by pixel position and summed
// afterwards: neighbouring pixels of a piecewise-constant slice often
// hit the same bin, and separate copies keep one increment from waiting
// on the store of the last. The copies interleave (lane l of bin b is
// j[4b+l]), so one slice header serves all four.
func countPixels(j []int32, frow []uint16, mrow []uint8) {
	frow = frow[:len(mrow)]
	x := 0
	for ; x+3 < len(mrow); x += 4 {
		j[4*(int(frow[x])+int(mrow[x]))]++
		j[4*(int(frow[x+1])+int(mrow[x+1]))+1]++
		j[4*(int(frow[x+2])+int(mrow[x+2]))+2]++
		j[4*(int(frow[x+3])+int(mrow[x+3]))+3]++
	}
	for ; x < len(mrow); x++ {
		j[4*(int(frow[x])+int(mrow[x]))]++
	}
}

// countRuns adds the same counts as countPixels from the rows' run
// forms: the fixed row's runs (fe, fb) in window columns, and the moving
// row's (me, mb) in image columns, whose window starts at column s. It
// merges the two lists of run ends and adds each segment's length to its
// joint bin, in lane 0. The merge has no data-dependent branch: e is the
// nearer of the two ends, and each list steps past its run when e is
// that run's end (a branchy merge mispredicts on nearly every segment).
func countRuns(j []int32, fe []int32, fb []uint16, me []int32, mb []uint16, s int32) {
	mi := 0
	for me[mi] <= s {
		mi++
	}
	fi := 0
	for pos, end := s, fe[len(fe)-1]+s; pos < end; {
		ef, em := fe[fi]+s, me[mi]
		d := ef - em
		e := em + d&(d>>31)
		j[4*(int(fb[fi])+int(mb[mi]))] += e - pos
		pos = e
		fi += int(1 + (e-ef)>>31)
		mi += int(1 + (e-em)>>31)
	}
}

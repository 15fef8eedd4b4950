package register

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/img"
	"repro/internal/obs"
)

// refOverlapMI is the pre-kernel reference: crop both windows and run
// the (still exported) MutualInformation over the copies. The kernel
// must reproduce it bit for bit — same extrema, same bin indices, same
// accumulation order — so the selected shifts, stack output and
// checkpoints of the default pipeline stay byte-identical across the
// optimization.
func refOverlapMI(t *testing.T, fixed, moving *img.Gray, dx, dy int, o Options) float64 {
	t.Helper()
	mx := o.MaxShift + o.Margin
	my := o.shiftY() + o.Margin
	fc, err := fixed.Crop(mx, my, fixed.W-mx, fixed.H-my)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := moving.Crop(mx-dx, my-dy, fixed.W-mx-dx, fixed.H-my-dy)
	if err != nil {
		t.Fatal(err)
	}
	mi, err := MutualInformation(fc, mc, o.Bins)
	if err != nil {
		t.Fatal(err)
	}
	return mi
}

// searchMIs runs the production search over the full window of o.
func searchMIs(t *testing.T, fixed, moving *img.Gray, o Options) ([]Shift, []float64) {
	t.Helper()
	cands := fullWindow(o.MaxShift, o.shiftY())
	mis, err := searchCands(context.Background(), fixed, moving, o, o.MaxShift, o.shiftY(), cands)
	if err != nil {
		t.Fatal(err)
	}
	return cands, mis
}

// distinctExtrema counts the distinct moving-window extrema pairs, one
// bin table each, that the candidates of o's full window bind to.
func distinctExtrema(fixed, moving *img.Gray, o Options) int {
	k := newMIKernel(fixed, moving, o.MaxShift, o.shiftY(), o.Margin, o.Bins)
	defer k.release()
	k.bindCands(fullWindow(o.MaxShift, o.shiftY()))
	return len(k.keys)
}

// spiky is an aperiodic moving image with isolated extreme pixels in the
// band of columns and rows that only some candidate windows cover, so
// every candidate of o's full window has its own (min, max) pair: a high
// spike per left-band column (larger further left) and a low spike per
// top-band row (lower further up).
func spiky(w, h int, seed int64, o Options) *img.Gray {
	g := aperiodic(w, h, seed)
	x0, y0 := o.MaxShift+o.Margin, o.shiftY()+o.Margin
	for c := x0 - o.MaxShift; c < x0+o.MaxShift; c++ {
		g.Set(c, h/2, 2+0.1*float64(x0+o.MaxShift-c))
	}
	for r := y0 - o.shiftY(); r < y0+o.shiftY(); r++ {
		g.Set(w/2, r, -1-0.1*float64(y0+o.shiftY()-r))
	}
	return g
}

func TestMIKernelMatchesCropReference(t *testing.T) {
	prod := Options{MaxShift: 4, MaxShiftY: 2, Bins: 32, Margin: 1}
	withBins := func(bins int) Options {
		o := prod
		o.Bins = bins
		return o
	}
	cases := []struct {
		name          string
		fixed, moving *img.Gray
		o             Options
	}{
		{"textured", texture(48, 48, 3), texture(48, 48, 3).Translate(2, -1), symOptions()},
		{"aperiodic", aperiodic(64, 40, 9), aperiodic(64, 40, 31), symOptions()},
		{"flat", img.New(48, 48), img.New(48, 48), symOptions()},
		// Window width 47-2·(3+1) = 39, not a multiple of the 4-way
		// histogram unroll: the per-row tail loop runs.
		{"odd-width", aperiodic(47, 30, 5), aperiodic(47, 30, 5).Translate(1, 1),
			Options{MaxShift: 3, MaxShiftY: 3, Bins: 32, Margin: 1}},
		// H = 2·(2+1)+4: the minimum 4-row overlap, so no row is shared
		// by every candidate window and each dy reduces its rows alone.
		{"min-rows", aperiodic(40, 10, 6), aperiodic(40, 10, 7), prod},
		{"bins-2", aperiodic(64, 40, 11), aperiodic(64, 40, 11).Translate(-2, 1), withBins(2)},
		{"bins-7", aperiodic(64, 40, 12), aperiodic(64, 40, 12).Translate(3, 0), withBins(7)},
		{"bins-32", aperiodic(64, 40, 13), aperiodic(64, 40, 13).Translate(0, -2), withBins(32)},
		{"bins-256", aperiodic(64, 40, 14), aperiodic(64, 40, 14).Translate(1, 2), withBins(maxBins)},
		// Every candidate has its own extrema: 45 bin tables, evaluated
		// in batches of maxTables.
		{"distinct-extrema", aperiodic(64, 40, 15), spiky(64, 40, 15, prod), prod},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.o
			o.Workers = 1
			cands, mis := searchMIs(t, tc.fixed, tc.moving, o)
			for i, c := range cands {
				if want := refOverlapMI(t, tc.fixed, tc.moving, c.DX, c.DY, o); mis[i] != want {
					t.Fatalf("(%d,%d): kernel MI %v != reference %v", c.DX, c.DY, mis[i], want)
				}
			}
		})
	}
	o := prod
	if n := distinctExtrema(aperiodic(64, 40, 15), spiky(64, 40, 15, o), o); n != len(fullWindow(o.MaxShift, o.shiftY())) {
		t.Errorf("distinct-extrema pair binds %d tables, want one per candidate", n)
	}
}

// AlignCtx on a pair whose candidates bind several tables must select the
// reference argmax at any worker count.
func TestAlignDistinctExtremaMatchesReference(t *testing.T) {
	o := Options{MaxShift: 4, MaxShiftY: 2, Bins: 32, Margin: 1}
	fixed := aperiodic(64, 40, 16)
	moving := spiky(64, 40, 16, o)
	if n := distinctExtrema(fixed, moving, o); n < 3 {
		t.Fatalf("pair binds %d tables, want >= 3", n)
	}
	cands := fullWindow(o.MaxShift, o.shiftY())
	ref := make([]float64, len(cands))
	for i, c := range cands {
		ref[i] = refOverlapMI(t, fixed, moving, c.DX, c.DY, o)
	}
	wantS, wantMI := pickBest(cands, ref)
	for _, workers := range []int{1, 2, 4} {
		o.Workers = workers
		s, mi, err := AlignCtx(context.Background(), fixed, moving, o)
		if err != nil {
			t.Fatal(err)
		}
		if s != wantS || mi != wantMI {
			t.Errorf("workers=%d: (%v, %v), want reference (%v, %v)", workers, s, mi, wantS, wantMI)
		}
	}
}

// The regression the perf work hangs on: steady-state candidate
// evaluation must not allocate. A single allocation per candidate puts
// ~65 allocations back on every slice pair times every widening retry
// times every chip of an -all campaign.
func TestMIKernelAllocFree(t *testing.T) {
	o := DefaultOptions()
	fixed := texture(96, 48, 5)
	moving := fixed.Translate(2, -1)
	k := newMIKernel(fixed, moving, o.MaxShift, o.shiftY(), o.Margin, o.Bins)
	defer k.release()
	cands := []Shift{{-1, 1}, {1, -1}}
	k.bindCands(cands)
	for t := range k.keys {
		k.binTable(t)
	}
	s := k.getScratch()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		c := cands[i]
		k.eval(c.DX, c.DY, &k.tables[k.candTable[i]], s)
		i = 1 - i
	})
	if allocs != 0 {
		t.Fatalf("MI kernel evaluation allocates %.1f objects per candidate, want 0", allocs)
	}
}

// A warm search at production geometry (a 4 nm B4 slice: 1857x39, the
// default pipeline's 9x5 window) draws its kernel, bin tables and
// histograms from the pools: a single-worker AlignCtx allocates only its
// small per-call slices and fan-out state, never an image-sized table.
// The race detector makes sync.Pool drop items at random, so race
// builds skip it; make alloc-check runs it without -race.
func TestSearchBinTablesAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	o := Options{MaxShift: 4, MaxShiftY: 2, Bins: 32, Margin: 1, Workers: 1}
	fixed := texture(1857, 39, 8)
	moving := fixed.Translate(2, -1)
	align := func() {
		if _, _, err := AlignCtx(context.Background(), fixed, moving, o); err != nil {
			t.Fatal(err)
		}
	}
	align()
	// Before the shared tables a warm AlignCtx allocated 9 objects.
	if allocs := testing.AllocsPerRun(20, align); allocs > 9 {
		t.Errorf("warm AlignCtx allocates %.0f objects, want <= 9", allocs)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	align()
	var before, after runtime.MemStats
	const runs = 20
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		align()
	}
	runtime.ReadMemStats(&after)
	table := uint64(len(moving.Pix)) // one uint8 bin per pixel
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= table {
		t.Errorf("warm AlignCtx allocates %d bytes, at least one %d-byte bin table", per, table)
	}
}

// A warm Stacker.Push with a warm pool, at the same production geometry
// and with the pipeline's robust options, takes its aligned buffer from
// the pool: it allocates no more objects than the warm AlignCtx above
// and fewer bytes than one slice. The race detector makes sync.Pool
// drop items at random, so race builds skip it; make alloc-check runs
// it without -race.
func TestStackerPushAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	o := Options{MaxShift: 4, MaxShiftY: 2, Bins: 32, Margin: 1, Workers: 1,
		MinConfidence: 0.05, WidenRetries: 2}
	src := []*img.Gray{texture(1857, 39, 8), texture(1857, 39, 8).Translate(2, -1)}
	pool := img.NewPool()
	st := NewStacker(o, pool)
	defer st.Release()
	i := 0
	push := func() {
		g := pool.Get(src[i%2].W, src[i%2].H)
		copy(g.Pix, src[i%2].Pix)
		i++
		a, _, err := st.Push(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		pool.Put(a)
	}
	push()
	push()
	if allocs := testing.AllocsPerRun(20, push); allocs > 9 {
		t.Errorf("warm Push allocates %.0f objects, want <= 9", allocs)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	push()
	var before, after runtime.MemStats
	const runs = 20
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		push()
	}
	runtime.ReadMemStats(&after)
	slice := uint64(8 * len(src[0].Pix))
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= slice {
		t.Errorf("warm Push allocates %d bytes, at least one %d-byte slice", per, slice)
	}
}

// img.MinMaxIn is on the per-search path and must not allocate either.
func TestMinMaxInAllocFree(t *testing.T) {
	g := texture(96, 48, 7)
	allocs := testing.AllocsPerRun(200, func() {
		g.MinMaxIn(3, 3, 90, 40)
	})
	if allocs != 0 {
		t.Fatalf("MinMaxIn allocates %.1f objects per call, want 0", allocs)
	}
}

// A widened retry rescans the full window (inner candidates score
// differently on the widened overlap geometry and can win the rescan),
// keeping AlignRobustCtx byte-identical to its historical output: the
// accepted (shift, MI) must equal a crop-based full-window pickBest at
// the widened geometry.
func TestWidenRetryFullRescanByDefault(t *testing.T) {
	base := aperiodic(64, 64, 41)
	moving := base.Translate(6, 0)
	o := symOptions()
	o.MaxShift, o.MaxShiftY = 4, 4
	o.WidenRetries = 2
	ob := &obs.Observer{Metrics: obs.NewMetrics()}
	o.Obs = ob
	got, err := AlignRobustCtx(context.Background(), base, moving, o)
	if err != nil {
		t.Fatal(err)
	}
	snap := ob.Snapshot()
	// First window: 9x9 = 81. First retry widens to 8x8: 17x17 = 289,
	// inner window included.
	if evals, want := snap.Counters["register.mi_evals"], int64(81+289); evals != want {
		t.Errorf("mi_evals = %d, want %d (full widened rescan)", evals, want)
	}
	// Reproduce the widened retry with the reference crop-based MI over
	// the complete widened window.
	wide := o
	wide.MaxShift, wide.MaxShiftY = 8, 8
	var cands []Shift
	var mis []float64
	for dy := -8; dy <= 8; dy++ {
		for dx := -8; dx <= 8; dx++ {
			cands = append(cands, Shift{DX: dx, DY: dy})
			mis = append(mis, refOverlapMI(t, base, moving, dx, dy, wide))
		}
	}
	wantShift, wantMI := pickBest(cands, mis)
	if got.Shift != wantShift || got.MI != wantMI {
		t.Errorf("widened result (%+v, %v) != reference full rescan (%+v, %v)",
			got.Shift, got.MI, wantShift, wantMI)
	}
}

// The widen retry must stay deterministic across worker counts, exactly
// like the non-widened scan.
func TestWidenRetryDeterministicAcrossWorkers(t *testing.T) {
	base := aperiodic(64, 64, 43)
	moving := base.Translate(5, 3)
	ref := symOptions()
	ref.MaxShift, ref.MaxShiftY = 3, 3
	ref.WidenRetries = 2
	ref.Workers = 1
	want, err := AlignRobustCtx(context.Background(), base, moving, ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		o := ref
		o.Workers = workers
		got, err := AlignRobustCtx(context.Background(), base, moving, o)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("workers=%d: %+v, want %+v", workers, got, want)
		}
	}
}

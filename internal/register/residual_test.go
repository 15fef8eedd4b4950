package register

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/img"
	"repro/internal/obs"
)

// residualRun measures the stack's pairs in order with a Residual whose
// pairs listed in flagged (by pair index k, pair k being slices k-1 and
// k) are flagged. It returns each pair's residual and MI evaluations.
func residualRun(t *testing.T, stack []*img.Gray, flagged map[int]bool) ([]float64, []int64) {
	t.Helper()
	o := DefaultOptions()
	m := obs.NewMetrics()
	o.Obs = &obs.Observer{Metrics: m}
	r := NewResidual(o)
	var ds []float64
	var evals []int64
	last := int64(0)
	for k := 1; k < len(stack); k++ {
		d, err := r.Pair(context.Background(), stack[k-1], stack[k], flagged[k])
		if err != nil {
			t.Fatal(err)
		}
		n := m.Snapshot().Counters["register.mi_evals"]
		ds, evals = append(ds, d), append(evals, n-last)
		last = n
	}
	return ds, evals
}

// The evaluations of one pair: a full search over the default 13x5
// window, the ±1 search, and the ±1 search escalated to the full one.
const (
	fullEvals  = 13 * 5
	localEvals = 9
)

// alignedStack is n noisy copies of one texture: every pair is aligned.
func alignedStack(n int) []*img.Gray {
	base := texture(64, 24, 3)
	rng := rand.New(rand.NewSource(4))
	out := make([]*img.Gray, n)
	for i := range out {
		g := base.Clone()
		for p := range g.Pix {
			g.Pix[p] += 0.01 * rng.NormFloat64()
		}
		out[i] = g
	}
	return out
}

// Pair 1 and every residualFullEvery-th pair after it take the full
// search; the others the ±1 search alone.
func TestResidualSamplesFullSearch(t *testing.T) {
	ds, evals := residualRun(t, alignedStack(2*residualFullEvery+3), nil)
	for i, n := range evals {
		k := i + 1
		want := int64(localEvals)
		if k%residualFullEvery == 1 {
			want = fullEvals
		}
		if n != want {
			t.Errorf("pair %d: %d MI evaluations, want %d", k, n, want)
		}
		if ds[i] != 0 {
			t.Errorf("pair %d: residual %v on an aligned pair", k, ds[i])
		}
	}
}

// A flagged pair takes the full search, and only that pair.
func TestResidualFlaggedPairTakesFullSearch(t *testing.T) {
	_, evals := residualRun(t, alignedStack(5), map[int]bool{3: true})
	want := []int64{fullEvals, localEvals, fullEvals, localEvals}
	for i, n := range evals {
		if n != want[i] {
			t.Errorf("pair %d: %d MI evaluations, want %d", i+1, n, want[i])
		}
	}
}

// A pair whose ±1 search finds a nonzero best takes the full search,
// which answers for it.
func TestResidualNonzeroLocalBestEscalates(t *testing.T) {
	stack := alignedStack(4)
	stack[2] = stack[2].Translate(1, 0)
	stack[3] = stack[3].Translate(1, 0)
	ds, evals := residualRun(t, stack, nil)
	want := []int64{fullEvals, localEvals + fullEvals, localEvals}
	for i, n := range evals {
		if n != want[i] {
			t.Errorf("pair %d: %d MI evaluations, want %d", i+1, n, want[i])
		}
	}
	if ds[1] != 1 || ds[2] != 0 {
		t.Errorf("residuals %v, want [0 1 0]", ds)
	}
}

// Once a full search finds a shift outside ±1, every later pair takes
// the full search: a stack misaligned by half a period has a zero-shift
// local maximum on every pair, which the ±1 search would report as 0.
func TestResidualWideShiftIsSticky(t *testing.T) {
	base := texture(64, 24, 9)
	stack := []*img.Gray{base, base.Translate(4, 0), base.Translate(8, 0), base.Translate(12, 0)}
	ds, evals := residualRun(t, stack, nil)
	for i, n := range evals {
		if n != fullEvals {
			t.Errorf("pair %d: %d MI evaluations, want %d", i+1, n, fullEvals)
		}
		if ds[i] != 4 {
			t.Errorf("pair %d: residual %v, want 4", i+1, ds[i])
		}
	}
	// The trap itself: the ±1 search alone stops at zero.
	s, _, err := localSearch(context.Background(), stack[1], stack[2], DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s != (Shift{}) {
		t.Errorf("±1 search on a half-period pair found %v; the test no longer sets the trap", s)
	}
}

// Property: on random textures whose true shift is 0 or ±1 per axis,
// the ±1 search returns the full search's shift and MI, bit for bit.
func TestLocalSearchMatchesFullSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	o := DefaultOptions()
	for trial := 0; trial < 40; trial++ {
		w, h := 40+rng.Intn(40), 16+rng.Intn(16)
		fixed := img.New(w, h)
		for p := range fixed.Pix {
			fixed.Pix[p] = rng.Float64()
		}
		fixed = img.GaussianBlur(fixed, 1.2)
		dx, dy := rng.Intn(3)-1, rng.Intn(3)-1
		moving := fixed.Translate(dx, dy)
		for p := range moving.Pix {
			moving.Pix[p] += 0.02 * rng.NormFloat64()
		}
		fs, fmi, err := AlignCtx(context.Background(), fixed, moving, o)
		if err != nil {
			t.Fatal(err)
		}
		ls, lmi, err := localSearch(context.Background(), fixed, moving, o)
		if err != nil {
			t.Fatal(err)
		}
		if fs != ls || fmi != lmi {
			t.Errorf("trial %d (%dx%d, shift %d,%d): ±1 search (%v, %v), full search (%v, %v)",
				trial, w, h, dx, dy, ls, lmi, fs, fmi)
		}
	}
}

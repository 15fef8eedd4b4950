package denoise

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/img"
)

// noisy builds a deterministic test slice: a step edge plus noise.
func noisy(w, h int, seed int64) *img.Gray {
	rng := rand.New(rand.NewSource(seed))
	g := img.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 0.2
			if x > w/2 {
				v = 0.8
			}
			g.Set(x, y, v+0.1*rng.NormFloat64())
		}
	}
	return g
}

// TestScratchMatchesFresh pins the streaming pipeline's core identity
// contract at the denoiser level: a reused Scratch (dirty from a
// previous, differently-sized slice) must produce bit-identical output
// to the allocate-fresh Ctx entry points.
func TestScratchMatchesFresh(t *testing.T) {
	o := DefaultOptions()
	o.Iterations = 15
	s := &Scratch{}
	// Dirty the scratch on a larger slice first so reuse paths (grown
	// buffers, nonzero remnants) are actually exercised.
	warm := noisy(40, 24, 7)
	warmDst := img.New(40, 24)
	if err := ChambolleInto(context.Background(), warmDst, warm, o, s); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		fresh func(*img.Gray) (*img.Gray, error)
		into  func(dst, f *img.Gray) error
	}{
		{"Chambolle",
			func(f *img.Gray) (*img.Gray, error) { return Chambolle(f, o) },
			func(dst, f *img.Gray) error { return ChambolleInto(context.Background(), dst, f, o, s) }},
		{"SplitBregman",
			func(f *img.Gray) (*img.Gray, error) { return SplitBregman(f, o) },
			func(dst, f *img.Gray) error { return SplitBregmanInto(context.Background(), dst, f, o, s) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := noisy(33, 17, 42)
			want, err := tc.fresh(f)
			if err != nil {
				t.Fatal(err)
			}
			dst := img.New(33, 17)
			dst.Fill(math.NaN()) // prior contents must not matter
			if err := tc.into(dst, f); err != nil {
				t.Fatal(err)
			}
			for i := range want.Pix {
				if want.Pix[i] != dst.Pix[i] {
					t.Fatalf("pixel %d differs: fresh %v scratch %v", i, want.Pix[i], dst.Pix[i])
				}
			}
			// Run again with the now-dirty scratch: still identical.
			dst2 := img.New(33, 17)
			if err := tc.into(dst2, f); err != nil {
				t.Fatal(err)
			}
			for i := range want.Pix {
				if want.Pix[i] != dst2.Pix[i] {
					t.Fatalf("second reuse: pixel %d differs", i)
				}
			}
		})
	}
}

func TestIntoRejectsMismatchedDst(t *testing.T) {
	f := noisy(8, 8, 1)
	dst := img.New(8, 7)
	if err := ChambolleInto(context.Background(), dst, f, DefaultOptions(), nil); err == nil {
		t.Fatal("ChambolleInto accepted a mismatched dst")
	}
	if err := SplitBregmanInto(context.Background(), dst, f, DefaultOptions(), nil); err == nil {
		t.Fatal("SplitBregmanInto accepted a mismatched dst")
	}
}

func TestIntoHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := noisy(8, 8, 1)
	dst := img.New(8, 8)
	if err := ChambolleInto(ctx, dst, f, DefaultOptions(), nil); err != context.Canceled {
		t.Fatalf("ChambolleInto under canceled ctx: %v", err)
	}
	if err := SplitBregmanInto(ctx, dst, f, DefaultOptions(), nil); err != context.Canceled {
		t.Fatalf("SplitBregmanInto under canceled ctx: %v", err)
	}
}

// TestTVIntoAllocFree pins the streaming pipeline's steady state: with
// a warm Scratch, denoising a slice allocates nothing.
func TestTVIntoAllocFree(t *testing.T) {
	f := noisy(64, 48, 3)
	dst := img.New(f.W, f.H)
	o := DefaultOptions()
	o.Iterations = 4
	for name, into := range map[string]func(context.Context, *img.Gray, *img.Gray, Options, *Scratch) error{
		"ChambolleInto":    ChambolleInto,
		"SplitBregmanInto": SplitBregmanInto,
	} {
		s := &Scratch{}
		allocs := testing.AllocsPerRun(20, func() {
			if err := into(context.Background(), dst, f, o, s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per warm run, want 0", name, allocs)
		}
	}
}

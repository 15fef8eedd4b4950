package denoise

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/img"
	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/tv_golden.json from the current kernels")

// tvGoldenPath holds the committed output hashes of both TV kernels over
// a grid of slice sizes and options. The hashes were captured from the
// three-sweep Chambolle kernel (divergence plane, then u, then the dual
// update) and the unoptimized split-Bregman sweep, so any rewrite of
// either kernel must reproduce their output bits exactly.
var tvGoldenPath = filepath.Join("testdata", "tv_golden.json")

// tvGoldenCase is one pinned kernel run: Iters is the
// "denoise.iterations" count it performed and SHA256 hashes the exact
// bits of its output.
type tvGoldenCase struct {
	Kernel     string  `json:"kernel"`
	W          int     `json:"w"`
	H          int     `json:"h"`
	Lambda     float64 `json:"lambda"`
	Iterations int     `json:"iterations"`
	Tol        float64 `json:"tol"`
	Iters      int64   `json:"iters"`
	SHA256     string  `json:"sha256"`
}

// tvGoldenCases runs every kernel over the golden grid: degenerate
// shapes (one pixel, one column, one row; two columns, where a row has
// no interior pixel; two rows, where the only row below the top is also
// the bottom), small odd sizes, and the 1857x39 cross section of chip
// B4's default extraction; fidelity
// weights from strong smoothing to near-identity, including the
// pipeline's 25; and tolerances that never fire, fire late and fire
// early. One Scratch serves every run, so reuse across sizes is covered
// too.
func tvGoldenCases(t *testing.T) []tvGoldenCase {
	kernels := []struct {
		name string
		run  func(ctx context.Context, dst, f *img.Gray, o Options, s *Scratch) error
	}{{"chambolle", ChambolleInto}, {"split-bregman", SplitBregmanInto}}
	sizes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {2, 2}, {2, 5}, {5, 2}, {3, 5}, {64, 64}, {173, 61}, {1857, 39}}
	var cases []tvGoldenCase
	s := &Scratch{}
	for _, k := range kernels {
		for _, sz := range sizes {
			w, h := sz[0], sz[1]
			f := noisy(w, h, int64(w*131+h))
			dst := img.New(w, h)
			for _, lambda := range []float64{0.5, 8, 25, 200} {
				for _, iters := range []int{1, 8, 60} {
					for _, tol := range []float64{0, 1e-5, 1e-2} {
						m := obs.NewMetrics()
						o := Options{Lambda: lambda, Iterations: iters, Tol: tol, Obs: &obs.Observer{Metrics: m}}
						if err := k.run(context.Background(), dst, f, o, s); err != nil {
							t.Fatalf("%s %dx%d %+v: %v", k.name, w, h, o, err)
						}
						cases = append(cases, tvGoldenCase{
							Kernel: k.name, W: w, H: h, Lambda: lambda, Iterations: iters, Tol: tol,
							Iters:  m.Snapshot().Counters["denoise.iterations"],
							SHA256: pixHash(dst),
						})
					}
				}
			}
		}
	}
	return cases
}

// pixHash is the SHA-256 of an image's pixel bits, little-endian.
func pixHash(g *img.Gray) string {
	buf := make([]byte, 0, 8*len(g.Pix))
	for _, p := range g.Pix {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p))
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf))
}

// TestTVGolden pins ChambolleInto and SplitBregmanInto, output bits and
// iteration counts, against testdata/tv_golden.json. Run with -update
// to rewrite the goldens from the current code.
func TestTVGolden(t *testing.T) {
	got := tvGoldenCases(t)
	early := 0
	for _, c := range got {
		if c.Iters < int64(c.Iterations) {
			early++
		}
	}
	if early == 0 {
		t.Fatal("no golden case stops early: the tolerance path is not covered")
	}
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, c := range got {
		line, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		if i < len(got)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(tvGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tvGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantEnc, err := os.ReadFile(tvGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	var want []tvGoldenCase
	if err := json.Unmarshal(wantEnc, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, run produced %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("got  %+v\nwant %+v", got[i], want[i])
		}
	}
}

package img

import (
	"bufio"
	"fmt"
	"io"
)

// WritePGM encodes the image as a binary PGM (P5, 8-bit) stream,
// linearly mapping [0,1] to [0,255] with clamping. PGM is the simplest
// portable export for inspecting simulated SEM slices.
func WritePGM(w io.Writer, g *Gray) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", g.W, g.H); err != nil {
		return err
	}
	row := make([]byte, g.W)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			row[x] = quantize8(g.At(x, y))
		}
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPGM decodes a binary PGM (P5) stream produced by WritePGM, mapping
// [0,255] back to [0,1].
func ReadPGM(r io.Reader) (*Gray, error) {
	br := bufio.NewReader(r)
	var magic string
	var w, h, maxval int
	if _, err := fmt.Fscan(br, &magic, &w, &h, &maxval); err != nil {
		return nil, fmt.Errorf("img: bad PGM header: %w", err)
	}
	if magic != "P5" {
		return nil, fmt.Errorf("img: unsupported PGM magic %q", magic)
	}
	if w <= 0 || h <= 0 || maxval <= 0 || maxval > 255 {
		return nil, fmt.Errorf("img: invalid PGM dimensions %dx%d max %d", w, h, maxval)
	}
	// Single whitespace byte after maxval.
	if _, err := br.ReadByte(); err != nil {
		return nil, err
	}
	g := New(w, h)
	buf := make([]byte, w)
	for y := 0; y < h; y++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("img: short PGM pixel data: %w", err)
		}
		for x, b := range buf {
			g.Set(x, y, float64(b)/float64(maxval))
		}
	}
	return g, nil
}

func quantize8(v float64) byte {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 255
	}
	return byte(v*255 + 0.5)
}

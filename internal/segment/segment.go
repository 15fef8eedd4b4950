// Package segment turns reconstructed planar-view images into
// rectangles: intensity thresholding (Otsu) and the decomposition of the
// binary mask into axis-aligned rectangles (DecomposeTol). It is the
// first stage of the circuit reverse-engineering methodology of Section
// V-A ("determine color intensities that correspond to gates, wires and
// vias").
package segment

import "repro/internal/img"

// Otsu computes the threshold maximizing between-class variance over a
// 256-bin histogram of the image intensities (after normalizing to the
// image's own range). It returns the threshold in original intensity
// units.
func Otsu(g *img.Gray) float64 {
	s := g.Statistics()
	if s.Max <= s.Min {
		return s.Min
	}
	const bins = 256
	hist := g.Histogram(bins, s.Min, s.Max)
	total := len(g.Pix)
	var sumAll float64
	for i, c := range hist {
		sumAll += float64(i) * float64(c)
	}
	var sumB, wB float64
	bestVar := -1.0
	bestBin := 0
	for i := 0; i < bins; i++ {
		wB += float64(hist[i])
		if wB == 0 {
			continue
		}
		wF := float64(total) - wB
		if wF == 0 {
			break
		}
		sumB += float64(i) * float64(hist[i])
		mB := sumB / wB
		mF := (sumAll - sumB) / wF
		v := wB * wF * (mB - mF) * (mB - mF)
		if v > bestVar {
			bestVar = v
			bestBin = i
		}
	}
	return s.Min + (float64(bestBin)+0.5)/bins*(s.Max-s.Min)
}

// Threshold returns the binary mask of pixels above thr.
func Threshold(g *img.Gray, thr float64) []bool {
	mask := make([]bool, len(g.Pix))
	for i, v := range g.Pix {
		mask[i] = v > thr
	}
	return mask
}

// Package volume provides 3-D scalar volumes assembled from FIB/SEM slice
// stacks and their planar reslice (PlanarAverage): the microscope
// produces cross-section images (X = lateral, Y = depth into the IC
// stack) at successive Z positions (FIB milling direction), and the
// reverse-engineering stage consumes planar (top-down) views, i.e.
// slices at constant depth Y.
//
// Axis convention throughout:
//
//	X — lateral direction within a cross-section image (image x)
//	Y — vertical direction within a cross-section image (image y),
//	    which is depth into the chip: metal layers at small Y,
//	    transistors at large Y (Fig. 4 of the paper)
//	Z — the FIB slicing direction (one slice per image)
package volume

import (
	"fmt"

	"repro/internal/img"
)

// Volume is a dense NX×NY×NZ float64 scalar field.
type Volume struct {
	NX, NY, NZ int
	// Data is indexed [z][y*NX+x] conceptually; stored flat as
	// z*NX*NY + y*NX + x.
	Data []float64
}

// New returns a zeroed volume. It panics on non-positive dimensions.
func New(nx, ny, nz int) *Volume {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("volume: invalid dimensions %dx%dx%d", nx, ny, nz))
	}
	return &Volume{NX: nx, NY: ny, NZ: nz, Data: make([]float64, nx*ny*nz)}
}

// At returns the voxel at (x, y, z).
func (v *Volume) At(x, y, z int) float64 {
	return v.Data[(z*v.NY+y)*v.NX+x]
}

// Set writes the voxel at (x, y, z).
func (v *Volume) Set(x, y, z int, val float64) {
	v.Data[(z*v.NY+y)*v.NX+x] = val
}

// SliceSizeError reports a slice whose dimensions differ from the first
// slice of the stack handed to FromStack. It is returned (wrapped in the
// pipeline's own context) before any volume memory is allocated, so a
// dimension bug surfaces as a typed error instead of a mid-pipeline
// panic.
type SliceSizeError struct {
	// Index is the offending slice's position in the stack.
	Index int
	// W, H are its dimensions; WantW, WantH those of slice 0.
	W, H, WantW, WantH int
}

func (e *SliceSizeError) Error() string {
	return fmt.Sprintf("volume: slice %d is %dx%d, want %dx%d",
		e.Index, e.W, e.H, e.WantW, e.WantH)
}

// FromStack assembles a volume from a stack of equally-sized
// cross-section images: slice k becomes the plane z = k. Every slice is
// validated before construction: a nil or malformed slice is rejected
// with an error and a dimension mismatch with a *SliceSizeError, so the
// constructor never reaches New's invalid-dimension panic.
func FromStack(slices []*img.Gray) (*Volume, error) {
	if len(slices) == 0 {
		return nil, fmt.Errorf("volume: empty stack")
	}
	for i, s := range slices {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("volume: slice %d: %w", i, err)
		}
	}
	w, h := slices[0].W, slices[0].H
	for i, s := range slices {
		if s.W != w || s.H != h {
			return nil, &SliceSizeError{Index: i, W: s.W, H: s.H, WantW: w, WantH: h}
		}
	}
	v := New(w, h, len(slices))
	for z, s := range slices {
		copy(v.Data[z*w*h:(z+1)*w*h], s.Pix)
	}
	return v, nil
}

// PlanarAverage returns the planar view averaged over the depth band
// [y0, y1), which is how a metal layer of finite thickness is rendered as
// a single planar image.
func (v *Volume) PlanarAverage(y0, y1 int) (*img.Gray, error) {
	if err := CheckBand(y0, y1, v.NY); err != nil {
		return nil, err
	}
	g := img.New(v.NX, v.NZ)
	for z, p := 0, v.NX*v.NY; z < v.NZ; z++ {
		BandMeanRow(g.Pix[z*v.NX:(z+1)*v.NX], v.Data[z*p:(z+1)*p], y0, y1)
	}
	return g, nil
}

// CheckBand reports whether [y0, y1) is a non-empty depth band of a
// cross-section ny rows deep.
func CheckBand(y0, y1, ny int) error {
	if y0 < 0 || y1 > ny || y0 >= y1 {
		return fmt.Errorf("volume: depth band [%d,%d) out of [0,%d)", y0, y1, ny)
	}
	return nil
}

// BandMeanRow writes one planar-view row: row[x] is the mean over the
// depth band [y0, y1), which must pass CheckBand, of column x of a
// cross-section plane indexed plane[y*len(row)+x].
func BandMeanRow(row, plane []float64, y0, y1 int) {
	w := len(row)
	inv := 1.0 / float64(y1-y0)
	for x := range row {
		var s float64
		for y := y0; y < y1; y++ {
			s += plane[y*w+x]
		}
		row[x] = s * inv
	}
}

package chipgen

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/layout"
)

// Material identifies the substance of a voxel, the quantity SEM contrast
// derives from.
type Material uint8

// Materials, bottom of the stack last (Fig. 4).
const (
	MatOxide Material = iota // inter-layer dielectric / background
	MatCapacitor
	MatM2
	MatVia
	MatM1
	MatContact
	MatGate
	MatActive
	numMaterials
)

// String implements fmt.Stringer.
func (m Material) String() string {
	names := [...]string{"oxide", "capacitor", "M2", "via", "M1", "contact", "gate", "active"}
	if int(m) >= len(names) {
		return fmt.Sprintf("material(%d)", int(m))
	}
	return names[m]
}

// NumMaterials is the number of distinct materials.
const NumMaterials = int(numMaterials)

// DepthBand is the voxel-Y extent of a layer in the IC stack: metal
// layers near the surface (small Y), transistors at the bottom, as in
// the paper's Fig. 4.
type DepthBand struct{ Y0, Y1 int }

// Depth bands of the voxel stack (units: voxels). Bands are several
// voxels thick so that residual sub-pixel slice misalignment only
// contaminates band edges, which the planar reslicing skips.
var depthBands = map[layout.Layer]DepthBand{
	layout.LayerCapacitor: {0, 9},
	layout.LayerM2:        {9, 15},
	layout.LayerVia1:      {15, 18},
	layout.LayerM1:        {18, 24},
	layout.LayerContact:   {24, 27},
	layout.LayerGate:      {27, 33},
	layout.LayerActive:    {33, 39},
}

// StackDepth is the voxel-Y size of the full stack.
const StackDepth = 39

// Band returns the depth band of a layer.
func Band(l layout.Layer) (DepthBand, bool) {
	b, ok := depthBands[l]
	return b, ok
}

// MaterialOf maps a layout layer to its voxel material.
func MaterialOf(l layout.Layer) Material {
	switch l {
	case layout.LayerCapacitor:
		return MatCapacitor
	case layout.LayerM2:
		return MatM2
	case layout.LayerVia1:
		return MatVia
	case layout.LayerM1:
		return MatM1
	case layout.LayerContact:
		return MatContact
	case layout.LayerGate:
		return MatGate
	case layout.LayerActive:
		return MatActive
	}
	return MatOxide
}

// MatVolume is a dense NX×NY×NZ volume of material identifiers. Axes
// follow package volume's convention: X along the bitlines, Y is depth
// into the stack, Z across the bitlines (the FIB slicing direction).
type MatVolume struct {
	NX, NY, NZ int
	// VoxelNM is the lateral voxel size; BoundsNM the layout window
	// this volume rasterizes.
	VoxelNM  int64
	BoundsNM geom.Rect
	Data     []Material
}

// At returns the material at (x, y, z).
func (v *MatVolume) At(x, y, z int) Material {
	return v.Data[(z*v.NY+y)*v.NX+x]
}

func (v *MatVolume) set(x, y, z int, m Material) {
	v.Data[(z*v.NY+y)*v.NX+x] = m
}

// Voxelize rasterizes the shapes of a cell within the window into a
// material volume with the given lateral voxel size, painting each
// shape's box from shapeBoxes in shape order; oxide fills the rest.
func Voxelize(cell *layout.Cell, window geom.Rect, voxelNM int64) (*MatVolume, error) {
	nx, nz, boxes, err := shapeBoxes(cell, window, voxelNM)
	if err != nil {
		return nil, err
	}
	v := &MatVolume{
		NX: nx, NY: StackDepth, NZ: nz,
		VoxelNM: voxelNM, BoundsNM: window,
		Data: make([]Material, nx*StackDepth*nz),
	}
	for _, b := range boxes {
		for z := b.z0; z < b.z1; z++ {
			for y := b.y0; y < b.y1; y++ {
				for x := b.x0; x < b.x1; x++ {
					v.set(x, y, z, b.m)
				}
			}
		}
	}
	return v, nil
}

// CropX returns the sub-volume covering voxel columns [x0, x1), keeping
// the full depth and slicing extent — how the pipeline narrows a die scan
// to the identified region of interest.
func (v *MatVolume) CropX(x0, x1 int) (*MatVolume, error) {
	if x0 < 0 || x1 > v.NX || x0 >= x1 {
		return nil, fmt.Errorf("chipgen: crop [%d,%d) out of [0,%d)", x0, x1, v.NX)
	}
	out := &MatVolume{
		NX: x1 - x0, NY: v.NY, NZ: v.NZ,
		VoxelNM: v.VoxelNM,
		BoundsNM: geom.R(
			v.BoundsNM.Min.X+int64(x0)*v.VoxelNM, v.BoundsNM.Min.Y,
			v.BoundsNM.Min.X+int64(x1)*v.VoxelNM, v.BoundsNM.Max.Y,
		),
		Data: make([]Material, (x1-x0)*v.NY*v.NZ),
	}
	for z := 0; z < v.NZ; z++ {
		for y := 0; y < v.NY; y++ {
			srcOff := (z*v.NY+y)*v.NX + x0
			dstOff := (z*out.NY + y) * out.NX
			copy(out.Data[dstOff:dstOff+out.NX], v.Data[srcOff:srcOff+(x1-x0)])
		}
	}
	return out, nil
}

package chipgen

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/layout"
)

// shapeBox is one shape's rasterized footprint: the voxel box it paints
// (lateral columns [x0,x1), slicing positions [z0,z1), depth rows
// [y0,y1)) and the material it paints with.
type shapeBox struct {
	x0, x1 int
	z0, z1 int
	y0, y1 int
	m      Material
}

// shapeBoxes validates a rasterization of the cell within the window at
// the given lateral voxel size and returns the grid's lateral and
// slicing dimensions with every banded shape's voxel box, in the cell's
// shape order: painting the boxes in that order makes later shapes
// overwrite earlier ones within their band. Layout X maps to volume X,
// layout Y to volume Z, and the depth bands to volume Y.
func shapeBoxes(cell *layout.Cell, window geom.Rect, voxelNM int64) (nx, nz int, boxes []shapeBox, err error) {
	if voxelNM <= 0 {
		return 0, 0, nil, fmt.Errorf("chipgen: non-positive voxel size %d", voxelNM)
	}
	if window.Empty() {
		return 0, 0, nil, fmt.Errorf("chipgen: empty voxelization window")
	}
	nx = int((window.W() + voxelNM - 1) / voxelNM)
	nz = int((window.H() + voxelNM - 1) / voxelNM)
	if nx <= 0 || nz <= 0 {
		return 0, 0, nil, fmt.Errorf("chipgen: window too small for voxel size")
	}
	boxes = make([]shapeBox, 0, len(cell.Shapes))
	for _, s := range cell.Shapes {
		band, ok := depthBands[s.Layer]
		if !ok {
			continue
		}
		r := s.Rect.Intersect(window)
		if r.Empty() {
			continue
		}
		boxes = append(boxes, shapeBox{
			x0: int((r.Min.X - window.Min.X) / voxelNM),
			x1: min(int((r.Max.X-window.Min.X+voxelNM-1)/voxelNM), nx),
			z0: int((r.Min.Y - window.Min.Y) / voxelNM),
			z1: min(int((r.Max.Y-window.Min.Y+voxelNM-1)/voxelNM), nz),
			y0: band.Y0, y1: band.Y1,
			m: MaterialOf(s.Layer),
		})
	}
	return nx, nz, boxes, nil
}

// PlaneSource rasterizes a cell one FIB plane at a time instead of
// materializing the full MatVolume. It paints the same shapeBoxes as
// Voxelize, plane by plane, so its planes equal the volume's
// cross-sections byte for byte, but its footprint is O(shapes + one
// plane) rather than O(nx·ny·nz) — the streaming acquisition producer
// renders from it so an arbitrarily deep slice stack never holds the
// whole volume in memory.
type PlaneSource struct {
	nx, nz   int
	voxelNM  int64
	boundsNM geom.Rect
	boxes    []shapeBox
	buf      []Material // reused by PlaneZ; see its doc comment
}

// NewPlaneSource prepares lazy plane rasterization of the cell within
// the window at the given lateral voxel size; it accepts and rejects
// exactly the inputs Voxelize does.
func NewPlaneSource(cell *layout.Cell, window geom.Rect, voxelNM int64) (*PlaneSource, error) {
	nx, nz, boxes, err := shapeBoxes(cell, window, voxelNM)
	if err != nil {
		return nil, err
	}
	return &PlaneSource{
		nx: nx, nz: nz,
		voxelNM: voxelNM, boundsNM: window,
		boxes: boxes,
		buf:   make([]Material, nx*StackDepth),
	}, nil
}

// Dims returns the voxel dimensions (nx lateral, ny depth, nz slicing
// positions) the source rasterizes.
func (p *PlaneSource) Dims() (nx, ny, nz int) {
	return p.nx, StackDepth, p.nz
}

// PlaneZ returns the material plane exposed by the FIB cut at slicing
// position z, indexed plane[y*nx+x] (depth-major, like MatVolume's
// in-plane layout). The returned slice is an internal buffer reused by
// the next PlaneZ call — callers must consume (or copy) it before
// asking for another plane. That contract fits the sequential
// acquisition producer, the only consumer.
func (p *PlaneSource) PlaneZ(z int) ([]Material, error) {
	if z < 0 || z >= p.nz {
		return nil, fmt.Errorf("chipgen: slice z=%d out of [0,%d)", z, p.nz)
	}
	for i := range p.buf {
		p.buf[i] = MatOxide
	}
	for _, b := range p.boxes {
		if z < b.z0 || z >= b.z1 {
			continue
		}
		for y := b.y0; y < b.y1; y++ {
			row := p.buf[y*p.nx : (y+1)*p.nx]
			for x := b.x0; x < b.x1; x++ {
				row[x] = b.m
			}
		}
	}
	return p.buf, nil
}

// Dims makes MatVolume interchangeable with PlaneSource for consumers
// that iterate planes.
func (v *MatVolume) Dims() (nx, ny, nz int) {
	return v.NX, v.NY, v.NZ
}

// PlaneZ returns the material plane at slicing position z as a direct
// (read-only) view into the volume's data, indexed plane[y*NX+x].
func (v *MatVolume) PlaneZ(z int) ([]Material, error) {
	if z < 0 || z >= v.NZ {
		return nil, fmt.Errorf("chipgen: slice z=%d out of [0,%d)", z, v.NZ)
	}
	return v.Data[z*v.NY*v.NX : (z+1)*v.NY*v.NX], nil
}

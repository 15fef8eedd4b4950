package chipgen

import (
	"testing"

	"repro/internal/chips"
	"repro/internal/geom"
	"repro/internal/layout"
)

// TestPlaneSourceMatchesVoxelize pins the streaming acquisition's
// ground-truth contract: every lazily rasterized plane must be
// byte-identical to the same plane of the fully materialized volume,
// on the SA region PlaneSource serves and on the die strip (row
// drivers, MATs and SA region) that is Voxelize's production input.
func TestPlaneSourceMatchesVoxelize(t *testing.T) {
	r, err := Generate(DefaultConfig(chips.ByID("B4")))
	if err != nil {
		t.Fatal(err)
	}
	die, err := GenerateDie(DefaultConfig(chips.ByID("B4")))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		cell   *layout.Cell
		window geom.Rect
		voxel  int64
	}{
		{"region", r.Cell, r.Truth.RegionBounds, 8},
		{"region", r.Cell, r.Truth.RegionBounds, 5},
		{"die", die.Cell, die.Cell.Bounds(), 8},
	}
	for _, c := range cases {
		voxel := c.voxel
		v, err := Voxelize(c.cell, c.window, voxel)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlaneSource(c.cell, c.window, voxel)
		if err != nil {
			t.Fatal(err)
		}
		pnx, pny, pnz := p.Dims()
		vnx, vny, vnz := v.Dims()
		if pnx != vnx || pny != vny || pnz != vnz {
			t.Fatalf("%s voxel=%d dims: plane source %dx%dx%d, volume %dx%dx%d",
				c.name, voxel, pnx, pny, pnz, vnx, vny, vnz)
		}
		for z := 0; z < vnz; z++ {
			want, err := v.PlaneZ(z)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.PlaneZ(z)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s voxel=%d z=%d: plane length %d, want %d", c.name, voxel, z, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s voxel=%d z=%d: plane[%d] = %v, want %v (x=%d y=%d)",
						c.name, voxel, z, i, got[i], want[i], i%vnx, i/vnx)
				}
			}
		}
	}
}

// TestPlaneZReusesBuffer documents the sequential-consumption contract:
// the next PlaneZ call overwrites the previously returned slice.
func TestPlaneZReusesBuffer(t *testing.T) {
	r, err := Generate(DefaultConfig(chips.ByID("B4")))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlaneSource(r.Cell, r.Truth.RegionBounds, 8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.PlaneZ(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.PlaneZ(1)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("PlaneZ allocated a fresh plane; expected buffer reuse")
	}
}

func TestPlaneSourceErrors(t *testing.T) {
	cell := &layout.Cell{}
	if _, err := NewPlaneSource(cell, geom.R(0, 0, 100, 100), 0); err == nil {
		t.Fatal("accepted non-positive voxel size")
	}
	if _, err := NewPlaneSource(cell, geom.Rect{}, 8); err == nil {
		t.Fatal("accepted empty window")
	}
	p, err := NewPlaneSource(cell, geom.R(0, 0, 100, 100), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.PlaneZ(-1); err == nil {
		t.Fatal("accepted negative z")
	}
	if _, err := p.PlaneZ(1000); err == nil {
		t.Fatal("accepted out-of-range z")
	}
	v := &MatVolume{NX: 2, NY: 2, NZ: 2, Data: make([]Material, 8)}
	if _, err := v.PlaneZ(2); err == nil {
		t.Fatal("MatVolume.PlaneZ accepted out-of-range z")
	}
}

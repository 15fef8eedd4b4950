package gds

import (
	"fmt"

	"repro/internal/layout"
)

// FromCell converts a layout cell into a GDSII structure, mapping each
// shape to a rectangular BOUNDARY on the layer's conventional GDS number.
// Coordinates must fit in int32 (database units are nanometers, so a die
// up to ~2m wide fits; errors are impossible for real chips but checked).
func FromCell(c *layout.Cell) (Structure, error) {
	s := Structure{Name: c.Name}
	for _, sh := range c.Shapes {
		r := sh.Rect
		if r.Empty() {
			continue
		}
		for _, v := range []int64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y} {
			if v > 1<<31-1 || v < -(1<<31) {
				return Structure{}, fmt.Errorf("gds: coordinate %d overflows int32", v)
			}
		}
		s.Boundaries = append(s.Boundaries, Boundary{
			Layer: sh.Layer.GDSLayerNumber(),
			XY: [][2]int32{
				{int32(r.Min.X), int32(r.Min.Y)},
				{int32(r.Max.X), int32(r.Min.Y)},
				{int32(r.Max.X), int32(r.Max.Y)},
				{int32(r.Min.X), int32(r.Max.Y)},
			},
		})
	}
	return s, nil
}

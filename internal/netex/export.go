package netex

import (
	"repro/internal/geom"
	"repro/internal/layout"
)

// AnnotatedCell converts a plan into a layout cell with the extraction's
// findings recorded as roles on the transistor gates and actives, so the
// exported layout carries the circuit identification.
func (res *Result) AnnotatedCell(p *Plan, name string) *layout.Cell {
	gateRole := make(map[geom.Rect]string)
	activeRole := make(map[geom.Rect]string)
	for _, t := range res.Transistors {
		gateRole[t.Gate] = "gate:" + t.Element.String()
		activeRole[t.Active] = "active:" + t.Element.String()
	}
	c := &layout.Cell{Name: name}
	for _, l := range layout.Layers() {
		for _, r := range p.ByLayer[l] {
			role := ""
			switch l {
			case layout.LayerGate:
				role = gateRole[r]
			case layout.LayerActive:
				role = activeRole[r]
			case layout.LayerM1:
				if r.W() >= p.Bounds.W()/10 && r.W() > 4*r.H() {
					role = "bitline"
				}
			}
			c.AddRect(l, r, "", role)
		}
	}
	return c
}

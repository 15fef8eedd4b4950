// Package layout models physical IC layouts of the DRAM sense-amplifier
// region: shapes on named layers, labeled components, design rules and a
// DRC checker. Coordinates are nanometers (int64) as in package geom.
//
// The layer set mirrors what the FIB/SEM imaging resolves (Fig. 4 and
// Fig. 7 of the paper): the transistor level (active + gate + contacts)
// at the bottom, metal-1 carrying the bitlines, vias, metal-2 routing,
// and the capacitor level above the MAT.
package layout

import (
	"fmt"

	"repro/internal/geom"
)

// Layer identifies a fabrication layer.
type Layer int

// The fabrication layers the imaging pipeline distinguishes.
const (
	LayerActive    Layer = iota // transistor active regions (diffusion)
	LayerGate                   // polysilicon / metal gates
	LayerContact                // contacts from transistor level to M1
	LayerM1                     // metal 1: bitlines and local wiring
	LayerVia1                   // vias M1 -> M2
	LayerM2                     // metal 2: LIO and secondary bitline routing
	LayerCapacitor              // stacked capacitors (MAT region only)
	numLayers
)

var layerNames = [...]string{
	"active", "gate", "contact", "M1", "via1", "M2", "capacitor",
}

// String implements fmt.Stringer.
func (l Layer) String() string {
	if l < 0 || int(l) >= len(layerNames) {
		return fmt.Sprintf("layer(%d)", int(l))
	}
	return layerNames[l]
}

// Layers returns all defined layers in stacking order (bottom first).
func Layers() []Layer {
	out := make([]Layer, numLayers)
	for i := range out {
		out[i] = Layer(i)
	}
	return out
}

// GDSLayerNumber returns the GDSII layer number conventionally assigned
// to l in our exports.
func (l Layer) GDSLayerNumber() int { return 10 + int(l) }

// Shape is a rectangle on a layer with an optional net label and a
// component role tag. DRAM SA layouts are rectilinear, so rectangles
// (plus horizontal/vertical wire segments) are sufficient.
type Shape struct {
	Layer Layer
	Rect  geom.Rect
	// Net is the electrical net name, when known ("BL3", "LA", ...).
	Net string
	// Role tags the shape's function ("bitline", "gate:nSA", ...);
	// empty for plain routing.
	Role string
}

// Cell is a named collection of shapes, the unit of layout reuse.
type Cell struct {
	Name   string
	Shapes []Shape
}

// Add appends a shape to the cell.
func (c *Cell) Add(s Shape) { c.Shapes = append(c.Shapes, s) }

// AddRect appends a plain rectangle on the given layer.
func (c *Cell) AddRect(l Layer, r geom.Rect, net, role string) {
	c.Add(Shape{Layer: l, Rect: r, Net: net, Role: role})
}

// OnLayer returns the shapes of the cell on layer l, in insertion order.
func (c *Cell) OnLayer(l Layer) []Shape {
	var out []Shape
	for _, s := range c.Shapes {
		if s.Layer == l {
			out = append(out, s)
		}
	}
	return out
}

// WithRole returns shapes whose Role equals role.
func (c *Cell) WithRole(role string) []Shape {
	var out []Shape
	for _, s := range c.Shapes {
		if s.Role == role {
			out = append(out, s)
		}
	}
	return out
}

// Bounds returns the bounding box over all shapes.
func (c *Cell) Bounds() geom.Rect {
	var b geom.Rect
	for _, s := range c.Shapes {
		b = b.Union(s.Rect)
	}
	return b
}

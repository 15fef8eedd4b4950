// Package geom provides the 2-D integer geometry primitives used by the
// layout, imaging and extraction packages. Coordinates are in database
// units (nanometers throughout this repository), stored as int64 so that
// whole-die coordinates never overflow and equality is exact.
package geom

import "fmt"

// Point is a 2-D point in database units (nanometers).
type Point struct {
	X, Y int64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y int64) Point { return Point{x, y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p minus q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Rect is an axis-aligned rectangle. A Rect is canonical when
// Min.X <= Max.X and Min.Y <= Max.Y; the Canon method produces the
// canonical form. Max is exclusive for pixel-style iteration but the
// geometric extent [Min, Max] is used for area and overlap math, matching
// the usual IC-layout convention where a rectangle covers the closed box.
type Rect struct {
	Min, Max Point
}

// R constructs a canonical rectangle from two corner coordinates.
func R(x0, y0, x1, y1 int64) Rect {
	return Rect{Point{x0, y0}, Point{x1, y1}}.Canon()
}

// Canon returns r with Min/Max swapped per axis if needed.
func (r Rect) Canon() Rect {
	if r.Min.X > r.Max.X {
		r.Min.X, r.Max.X = r.Max.X, r.Min.X
	}
	if r.Min.Y > r.Max.Y {
		r.Min.Y, r.Max.Y = r.Max.Y, r.Min.Y
	}
	return r
}

// W returns the width (X extent) of r.
func (r Rect) W() int64 { return r.Max.X - r.Min.X }

// H returns the height (Y extent) of r.
func (r Rect) H() int64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r in square database units.
func (r Rect) Area() int64 {
	if r.Empty() {
		return 0
	}
	return r.W() * r.H()
}

// Empty reports whether r covers no area.
func (r Rect) Empty() bool { return r.Min.X >= r.Max.X || r.Min.Y >= r.Max.Y }

// Center returns the center point of r (rounded toward Min).
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Translate returns r shifted by d.
func (r Rect) Translate(d Point) Rect {
	return Rect{r.Min.Add(d), r.Max.Add(d)}
}

// Intersect returns the intersection of r and s; the result is empty if
// they do not overlap.
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		Point{maxInt64(r.Min.X, s.Min.X), maxInt64(r.Min.Y, s.Min.Y)},
		Point{minInt64(r.Max.X, s.Max.X), minInt64(r.Max.Y, s.Max.Y)},
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Union returns the smallest rectangle containing both r and s. An empty
// operand is ignored.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		Point{minInt64(r.Min.X, s.Min.X), minInt64(r.Min.Y, s.Min.Y)},
		Point{maxInt64(r.Max.X, s.Max.X), maxInt64(r.Max.Y, s.Max.Y)},
	}
}

// Overlaps reports whether r and s share any area.
func (r Rect) Overlaps(s Rect) bool {
	return !r.Empty() && !s.Empty() &&
		r.Min.X < s.Max.X && s.Min.X < r.Max.X &&
		r.Min.Y < s.Max.Y && s.Min.Y < r.Max.Y
}

// Contains reports whether p lies inside r (Min inclusive, Max exclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X < r.Max.X && p.Y >= r.Min.Y && p.Y < r.Max.Y
}

// ContainsRect reports whether s lies entirely within r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.Empty() {
		return true
	}
	return s.Min.X >= r.Min.X && s.Min.Y >= r.Min.Y &&
		s.Max.X <= r.Max.X && s.Max.Y <= r.Max.Y
}

// Separation returns the minimum axis-aligned gap between r and s: the
// larger of the X gap and Y gap. It is 0 when the rectangles touch or
// overlap, which is the quantity a spacing design rule constrains.
func (r Rect) Separation(s Rect) int64 {
	dx := axisGap(r.Min.X, r.Max.X, s.Min.X, s.Max.X)
	dy := axisGap(r.Min.Y, r.Max.Y, s.Min.Y, s.Max.Y)
	// Overlapping on both axes means the rectangles intersect.
	if dx == 0 && dy == 0 {
		return 0
	}
	// Diagonal separation is conservatively the max of the two gaps
	// (rectilinear process rules measure per-axis).
	return maxInt64(dx, dy)
}

func axisGap(a0, a1, b0, b1 int64) int64 {
	switch {
	case b0 >= a1:
		return b0 - a1
	case a0 >= b1:
		return a0 - b1
	default:
		return 0
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%s-%s]", r.Min, r.Max)
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

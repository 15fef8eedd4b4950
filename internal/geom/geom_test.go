package geom

import (
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := Pt(3, -4)
	q := Pt(10, 2)
	if got := p.Add(q); got != Pt(13, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := q.Sub(p); got != Pt(7, 6) {
		t.Errorf("Sub = %v", got)
	}
}

func TestRectCanon(t *testing.T) {
	r := R(10, 20, 2, 5)
	if r.Min != Pt(2, 5) || r.Max != Pt(10, 20) {
		t.Fatalf("R not canonical: %v", r)
	}
	if r.W() != 8 || r.H() != 15 {
		t.Errorf("W,H = %d,%d", r.W(), r.H())
	}
	if r.Area() != 120 {
		t.Errorf("Area = %d", r.Area())
	}
}

func TestRectEmptyArea(t *testing.T) {
	var zero Rect
	if !zero.Empty() || zero.Area() != 0 {
		t.Errorf("zero rect should be empty with zero area")
	}
	line := Rect{Pt(0, 0), Pt(10, 0)}
	if !line.Empty() {
		t.Errorf("degenerate rect should be empty")
	}
}

func TestRectIntersect(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(5, 5, 15, 15)
	got := a.Intersect(b)
	if got != R(5, 5, 10, 10) {
		t.Errorf("Intersect = %v", got)
	}
	c := R(20, 20, 30, 30)
	if !a.Intersect(c).Empty() {
		t.Errorf("disjoint rects should intersect empty")
	}
	// Touching edges do not overlap.
	d := R(10, 0, 20, 10)
	if a.Overlaps(d) {
		t.Errorf("edge-touching rects must not overlap")
	}
	if !a.Intersect(d).Empty() {
		t.Errorf("edge-touching intersection must be empty")
	}
}

func TestRectUnion(t *testing.T) {
	a := R(0, 0, 5, 5)
	b := R(10, -3, 12, 2)
	if got := a.Union(b); got != R(0, -3, 12, 5) {
		t.Errorf("Union = %v", got)
	}
	var empty Rect
	if got := empty.Union(b); got != b {
		t.Errorf("empty union should return other: %v", got)
	}
	if got := b.Union(empty); got != b {
		t.Errorf("union with empty should return receiver: %v", got)
	}
}

func TestRectContains(t *testing.T) {
	a := R(0, 0, 10, 10)
	if !a.Contains(Pt(0, 0)) {
		t.Errorf("Min corner should be contained")
	}
	if a.Contains(Pt(10, 10)) {
		t.Errorf("Max corner should not be contained")
	}
	if !a.ContainsRect(R(2, 2, 8, 8)) {
		t.Errorf("inner rect should be contained")
	}
	if a.ContainsRect(R(2, 2, 12, 8)) {
		t.Errorf("protruding rect should not be contained")
	}
	if !a.ContainsRect(Rect{}) {
		t.Errorf("empty rect is contained everywhere")
	}
}

func TestRectSeparation(t *testing.T) {
	a := R(0, 0, 10, 10)
	cases := []struct {
		name string
		b    Rect
		want int64
	}{
		{"overlap", R(5, 5, 15, 15), 0},
		{"touching", R(10, 0, 20, 10), 0},
		{"x-gap", R(13, 0, 20, 10), 3},
		{"y-gap", R(0, 17, 10, 20), 7},
		{"diagonal", R(14, 12, 20, 20), 4},
		{"left", R(-9, 0, -5, 10), 5},
	}
	for _, c := range cases {
		if got := a.Separation(c.b); got != c.want {
			t.Errorf("%s: Separation = %d, want %d", c.name, got, c.want)
		}
		if got := c.b.Separation(a); got != c.want {
			t.Errorf("%s: Separation not symmetric: %d", c.name, got)
		}
	}
}

func TestRectTranslateCenter(t *testing.T) {
	a := R(0, 0, 10, 4)
	b := a.Translate(Pt(5, 5))
	if b != R(5, 5, 15, 9) {
		t.Errorf("Translate = %v", b)
	}
	if c := b.Center(); c != Pt(10, 7) {
		t.Errorf("Center = %v", c)
	}
}

// Property: intersection is commutative and contained in both operands.
func TestIntersectProperties(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh int16) bool {
		a := R(int64(ax), int64(ay), int64(ax)+int64(abs16(aw)), int64(ay)+int64(abs16(ah)))
		b := R(int64(bx), int64(by), int64(bx)+int64(abs16(bw)), int64(by)+int64(abs16(bh)))
		i1 := a.Intersect(b)
		i2 := b.Intersect(a)
		if i1 != i2 {
			return false
		}
		if !i1.Empty() && (!a.ContainsRect(i1) || !b.ContainsRect(i1)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: union contains both operands, and area(union) >= max areas.
func TestUnionProperties(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh int16) bool {
		a := R(int64(ax), int64(ay), int64(ax)+int64(abs16(aw)), int64(ay)+int64(abs16(ah)))
		b := R(int64(bx), int64(by), int64(bx)+int64(abs16(bw)), int64(by)+int64(abs16(bh)))
		u := a.Union(b)
		if !u.ContainsRect(a) || !u.ContainsRect(b) {
			return false
		}
		return u.Area() >= a.Area() && u.Area() >= b.Area()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Separation is zero iff rectangles overlap or touch.
func TestSeparationOverlapConsistency(t *testing.T) {
	f := func(ax, ay, bx, by int8) bool {
		a := R(int64(ax), int64(ay), int64(ax)+10, int64(ay)+10)
		b := R(int64(bx), int64(by), int64(bx)+10, int64(by)+10)
		sep := a.Separation(b)
		if a.Overlaps(b) && sep != 0 {
			return false
		}
		if sep > 0 && a.Overlaps(b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs16(v int16) int16 {
	if v < 0 {
		if v == -32768 {
			return 32767
		}
		return -v
	}
	return v
}

func TestRectString(t *testing.T) {
	if s := R(0, 1, 2, 3).String(); s != "[(0,1)-(2,3)]" {
		t.Errorf("String = %q", s)
	}
	if s := Pt(-1, 2).String(); s != "(-1,2)" {
		t.Errorf("Point String = %q", s)
	}
}

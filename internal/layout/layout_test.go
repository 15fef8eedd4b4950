package layout

import (
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestLayerString(t *testing.T) {
	if LayerM1.String() != "M1" || LayerActive.String() != "active" {
		t.Errorf("layer names wrong: %s %s", LayerM1, LayerActive)
	}
	if Layer(99).String() != "layer(99)" {
		t.Errorf("out-of-range layer name: %s", Layer(99))
	}
	if len(Layers()) != int(numLayers) {
		t.Errorf("Layers() length %d", len(Layers()))
	}
}

func TestGDSLayerNumbersDistinct(t *testing.T) {
	seen := map[int]bool{}
	for _, l := range Layers() {
		n := l.GDSLayerNumber()
		if seen[n] {
			t.Errorf("duplicate GDS layer number %d", n)
		}
		seen[n] = true
	}
}

func TestCellShapesAndQueries(t *testing.T) {
	c := &Cell{Name: "sa"}
	c.AddRect(LayerM1, geom.R(0, 0, 10, 100), "BL0", "bitline")
	c.AddRect(LayerM1, geom.R(20, 0, 30, 100), "BLB0", "bitline")
	c.AddRect(LayerGate, geom.R(0, 40, 30, 50), "LA", "gate:nSA")
	if got := len(c.OnLayer(LayerM1)); got != 2 {
		t.Errorf("OnLayer(M1) = %d", got)
	}
	if got := len(c.WithRole("bitline")); got != 2 {
		t.Errorf("WithRole = %d", got)
	}
	if got := len(c.WithRole("nope")); got != 0 {
		t.Errorf("WithRole(nope) = %d", got)
	}
	if b := c.Bounds(); b != geom.R(0, 0, 30, 100) {
		t.Errorf("Bounds = %v", b)
	}
}

func TestDRCWidth(t *testing.T) {
	rules := DefaultRules(20)
	shapes := []Shape{
		{Layer: LayerM1, Rect: geom.R(0, 0, 10, 100)},  // 10nm wide < 20nm
		{Layer: LayerM1, Rect: geom.R(50, 0, 70, 100)}, // OK
	}
	vs := Check(shapes, rules)
	if len(vs) != 1 {
		t.Fatalf("violations = %d: %v", len(vs), vs)
	}
	if vs[0].Rule != "min-width" || vs[0].Got != 10 || vs[0].Want != 20 {
		t.Errorf("violation = %+v", vs[0])
	}
}

func TestDRCSpacing(t *testing.T) {
	rules := DefaultRules(20)
	shapes := []Shape{
		{Layer: LayerM1, Rect: geom.R(0, 0, 20, 100), Net: "a"},
		{Layer: LayerM1, Rect: geom.R(30, 0, 50, 100), Net: "b"}, // 10nm gap < 20nm
		{Layer: LayerM1, Rect: geom.R(80, 0, 100, 100), Net: "c"},
	}
	vs := Check(shapes, rules)
	if len(vs) != 1 {
		t.Fatalf("violations = %d: %v", len(vs), vs)
	}
	if vs[0].Rule != "min-spacing" || vs[0].Got != 10 {
		t.Errorf("violation = %+v", vs[0])
	}
	// Same-net shapes may abut.
	sameNet := []Shape{
		{Layer: LayerM1, Rect: geom.R(0, 0, 20, 100), Net: "a"},
		{Layer: LayerM1, Rect: geom.R(20, 0, 40, 100), Net: "a"},
	}
	if vs := Check(sameNet, rules); len(vs) != 0 {
		t.Errorf("same-net abutment flagged: %v", vs)
	}
}

func TestDRCOverlapIsViolation(t *testing.T) {
	rules := DefaultRules(10)
	shapes := []Shape{
		{Layer: LayerGate, Rect: geom.R(0, 0, 20, 20), Net: "a"},
		{Layer: LayerGate, Rect: geom.R(10, 0, 30, 20), Net: "b"},
	}
	vs := Check(shapes, rules)
	found := false
	for _, v := range vs {
		if v.Rule == "min-spacing" && v.Got == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("overlapping different nets should violate spacing: %v", vs)
	}
}

func TestDRCIgnoresEmptyAndOtherLayers(t *testing.T) {
	rules := DefaultRules(10)
	shapes := []Shape{
		{Layer: LayerM1, Rect: geom.Rect{}},
		{Layer: LayerM1, Rect: geom.R(0, 0, 10, 100)},
		{Layer: LayerM2, Rect: geom.R(5, 0, 45, 100)}, // different layer, no cross check
	}
	if vs := Check(shapes, rules); len(vs) != 0 {
		t.Errorf("unexpected violations: %v", vs)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Rule: "min-width", Layer: LayerM1, A: geom.R(0, 0, 5, 10), Got: 5, Want: 20}
	if s := v.String(); s == "" {
		t.Errorf("empty violation string")
	}
	v2 := Violation{Rule: "min-spacing", Layer: LayerM1, A: geom.R(0, 0, 5, 10), B: geom.R(7, 0, 12, 10), Got: 2, Want: 20}
	if s := v2.String(); s == "" {
		t.Errorf("empty violation string")
	}
}

func TestFreeSpace(t *testing.T) {
	window := geom.R(0, 0, 100, 50)
	// Wires at [0,20] and [60,80]: gaps are 40 (middle) and 20 (right).
	shapes := []Shape{
		{Layer: LayerM1, Rect: geom.R(0, 0, 20, 50)},
		{Layer: LayerM1, Rect: geom.R(60, 0, 80, 50)},
	}
	if g := FreeSpace(shapes, LayerM1, window); g != 40 {
		t.Errorf("gap = %d, want 40", g)
	}
	if g := FreeSpace(nil, LayerM1, window); g != 100 {
		t.Errorf("empty layer gap = %d, want 100", g)
	}
	// Fully covered window has no gap.
	full := []Shape{{Layer: LayerM1, Rect: geom.R(0, 0, 100, 50)}}
	if g := FreeSpace(full, LayerM1, window); g != 0 {
		t.Errorf("full window gap = %d", g)
	}
}

func TestCanInsertWire(t *testing.T) {
	rules := DefaultRules(20) // need 20 + 2*20 = 60nm gap
	window := geom.R(0, 0, 200, 50)
	sparse := []Shape{
		{Layer: LayerM1, Rect: geom.R(0, 0, 20, 50)},
		{Layer: LayerM1, Rect: geom.R(120, 0, 140, 50)},
	}
	if !CanInsertWire(sparse, LayerM1, window, rules) {
		t.Errorf("100nm gap should accept a 60nm insertion")
	}
	// Dense bitline array at minimum pitch: gaps are exactly MinSpacing.
	var dense []Shape
	for x := int64(0); x < 200; x += 40 {
		dense = append(dense, Shape{Layer: LayerM1, Rect: geom.R(x, 0, x+20, 50)})
	}
	if CanInsertWire(dense, LayerM1, window, rules) {
		t.Errorf("minimum-pitch array must reject insertion (inaccuracy I1/I2)")
	}
}

// Property: a minimum-pitch wire array is always DRC-clean yet never
// accepts an extra wire — the core of the paper's I1/I2 finding.
func TestMinPitchArrayProperty(t *testing.T) {
	f := func(fRaw uint8, nRaw uint8) bool {
		f64 := int64(fRaw%30) + 10 // feature size 10..39nm
		n := int(nRaw%6) + 3       // 3..8 wires
		rules := DefaultRules(f64)
		pitch := 2 * f64
		var shapes []Shape
		for i := 0; i < n; i++ {
			x := int64(i) * pitch
			shapes = append(shapes, Shape{
				Layer: LayerM1,
				Rect:  geom.R(x, 0, x+f64, 1000),
				Net:   netName(i),
			})
		}
		window := geom.R(0, 0, int64(n)*pitch, 1000)
		if len(Check(shapes, rules)) != 0 {
			return false
		}
		return !CanInsertWire(shapes, LayerM1, window, rules)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func netName(i int) string { return string(rune('a' + i)) }

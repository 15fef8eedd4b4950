package netex

import (
	"bytes"
	"testing"

	"repro/internal/chipgen"
	"repro/internal/chips"
	"repro/internal/gds"
	"repro/internal/layout"
)

// The annotated cell keeps every shape of the plan, and survives a
// GDSII round trip.
func TestAnnotatedCellRoundTrip(t *testing.T) {
	p, _ := planFor(t, "C4")
	res, err := Extract(p)
	if err != nil {
		t.Fatal(err)
	}
	cell := res.AnnotatedCell(p, "extracted_C4")
	if len(cell.Shapes) != shapeCount(p) {
		t.Errorf("cell shapes = %d, want %d", len(cell.Shapes), shapeCount(p))
	}
	s, err := gds.FromCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	lib := gds.NewLibrary("RT")
	lib.Structs = []gds.Structure{s}
	var buf bytes.Buffer
	if err := lib.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := gds.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Structs[0].Boundaries) != len(cell.Shapes) {
		t.Errorf("GDS boundaries = %d, want %d", len(back.Structs[0].Boundaries), len(cell.Shapes))
	}
}

func shapeCount(p *Plan) int {
	n := 0
	for _, rects := range p.ByLayer {
		n += len(rects)
	}
	return n
}

func TestAnnotatedCellCarriesFindings(t *testing.T) {
	p, truth := planFor(t, "B5")
	res, err := Extract(p)
	if err != nil {
		t.Fatal(err)
	}
	cell := res.AnnotatedCell(p, "annotated_B5")
	// Every identified transistor's gate appears with its element role.
	for _, e := range []chips.Element{chips.Isolation, chips.OffsetCancel, chips.NSA, chips.PSA} {
		if len(cell.WithRole("gate:"+e.String())) == 0 {
			t.Errorf("annotated cell missing gate role for %s", e)
		}
	}
	if got := len(cell.WithRole("bitline")); got < truth.Bitlines {
		t.Errorf("annotated bitline segments = %d, want >= %d", got, truth.Bitlines)
	}
	// Unidentified routing shapes keep an empty role but are present.
	if len(cell.OnLayer(layout.LayerVia1)) == 0 {
		t.Errorf("vias missing from annotated cell")
	}
}

func TestAnnotatedExtractedLayoutExports(t *testing.T) {
	// The paper's released artifact: the reverse-engineered layout of an
	// OCSA chip as GDSII.
	r, err := chipgen.Generate(chipgen.DefaultConfig(chips.ByID("A5")))
	if err != nil {
		t.Fatal(err)
	}
	p := FromCell(r.Cell)
	res, err := Extract(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := gds.FromCell(res.AnnotatedCell(p, "A5"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Boundaries) == 0 {
		t.Fatal("empty GDS export")
	}
}

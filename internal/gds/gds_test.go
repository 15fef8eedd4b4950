package gds

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/layout"
)

func sampleLibrary() *Library {
	lib := NewLibrary("HIFI")
	lib.Structs = []Structure{
		{
			Name: "SA1",
			Boundaries: []Boundary{
				{Layer: 13, Datatype: 0, XY: [][2]int32{{0, 0}, {100, 0}, {100, 50}, {0, 50}}},
				{Layer: 11, Datatype: 2, XY: [][2]int32{{-5, -5}, {5, -5}, {5, 5}, {-5, 5}}},
			},
		},
		{Name: "EMPTY"},
	}
	return lib
}

func TestWriteReadRoundTrip(t *testing.T) {
	lib := sampleLibrary()
	var buf bytes.Buffer
	if err := lib.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "HIFI" {
		t.Errorf("library name %q", got.Name)
	}
	if len(got.Structs) != 2 {
		t.Fatalf("structures = %d", len(got.Structs))
	}
	s := got.Structs[0]
	if s.Name != "SA1" || len(s.Boundaries) != 2 {
		t.Fatalf("structure = %+v", s)
	}
	b := s.Boundaries[0]
	if b.Layer != 13 || len(b.XY) != 4 {
		t.Errorf("boundary = %+v", b)
	}
	if b.XY[2] != [2]int32{100, 50} {
		t.Errorf("vertex = %v", b.XY[2])
	}
	if s.Boundaries[1].Datatype != 2 {
		t.Errorf("datatype not preserved: %d", s.Boundaries[1].Datatype)
	}
	if got.Structs[1].Name != "EMPTY" || len(got.Structs[1].Boundaries) != 0 {
		t.Errorf("empty structure mishandled: %+v", got.Structs[1])
	}
}

func TestUnitsRoundTrip(t *testing.T) {
	lib := sampleLibrary()
	var buf bytes.Buffer
	if err := lib.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.UserUnit-1e-3)/1e-3 > 1e-9 {
		t.Errorf("user unit = %v", got.UserUnit)
	}
	if math.Abs(got.MeterUnit-1e-9)/1e-9 > 1e-9 {
		t.Errorf("meter unit = %v", got.MeterUnit)
	}
}

func TestReal8RoundTripProperty(t *testing.T) {
	f := func(mant int32, scale uint8) bool {
		v := float64(mant) * math.Pow(10, float64(int(scale%19)-9))
		got := parseReal8(real8(v))
		if v == 0 {
			return got == 0
		}
		return math.Abs(got-v) <= math.Abs(v)*1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestReal8KnownValues(t *testing.T) {
	// 1.0 encodes as exponent 65 (16^1 * 1/16), mantissa 0x10000000000000.
	b := real8(1.0)
	if b[0] != 0x41 || b[1] != 0x10 {
		t.Errorf("real8(1.0) = % x", b)
	}
	if v := parseReal8(b); v != 1.0 {
		t.Errorf("parse = %v", v)
	}
	if v := parseReal8(real8(-2.5)); v != -2.5 {
		t.Errorf("negative round trip = %v", v)
	}
	if v := parseReal8(make([]byte, 8)); v != 0 {
		t.Errorf("zero = %v", v)
	}
	if v := parseReal8([]byte{1}); v != 0 {
		t.Errorf("short input should be 0, got %v", v)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":            {},
		"truncated header": {0x00},
		"no endlib": func() []byte {
			var buf bytes.Buffer
			e := &encoder{w: &buf}
			e.record(recHEADER, u16(600))
			return buf.Bytes()
		}(),
		"strname outside structure": func() []byte {
			var buf bytes.Buffer
			e := &encoder{w: &buf}
			e.record(recHEADER, u16(600))
			e.record(recSTRNAME, asciiPayload("X"))
			e.record(recENDLIB, nil)
			return buf.Bytes()
		}(),
		"endlib inside structure": func() []byte {
			var buf bytes.Buffer
			e := &encoder{w: &buf}
			e.record(recHEADER, u16(600))
			e.record(recBGNSTR, timestampPayload())
			e.record(recSTRNAME, asciiPayload("X"))
			e.record(recENDLIB, nil)
			return buf.Bytes()
		}(),
		"no header": func() []byte {
			var buf bytes.Buffer
			e := &encoder{w: &buf}
			e.record(recENDLIB, nil)
			return buf.Bytes()
		}(),
	}
	for name, data := range cases {
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestOddLengthNamePadding(t *testing.T) {
	lib := NewLibrary("ODD") // 3 chars -> padded
	lib.Structs = []Structure{{Name: "ABC"}}
	var buf bytes.Buffer
	if err := lib.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "ODD" || got.Structs[0].Name != "ABC" {
		t.Errorf("padding not stripped: %q %q", got.Name, got.Structs[0].Name)
	}
}

func TestFromCell(t *testing.T) {
	c := &layout.Cell{Name: "sa"}
	c.AddRect(layout.LayerM1, geom.R(0, 0, 100, 30), "BL", "bitline")
	c.AddRect(layout.LayerGate, geom.R(10, 10, 20, 20), "", "")
	c.AddRect(layout.LayerM2, geom.Rect{}, "", "") // skipped
	s, err := FromCell(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Boundaries) != 2 {
		t.Fatalf("boundaries = %d", len(s.Boundaries))
	}
	if s.Boundaries[0].Layer != layout.LayerM1.GDSLayerNumber() {
		t.Errorf("layer = %d", s.Boundaries[0].Layer)
	}
	if len(s.Boundaries[0].XY) != 4 {
		t.Errorf("rect should have 4 vertices, got %d", len(s.Boundaries[0].XY))
	}
}

func TestFromCellOverflow(t *testing.T) {
	c := &layout.Cell{Name: "big"}
	c.AddRect(layout.LayerM1, geom.R(0, 0, 1<<33, 10), "", "")
	if _, err := FromCell(c); err == nil {
		t.Errorf("expected int32 overflow error")
	}
}

func TestEndToEndLayoutGDSRoundTrip(t *testing.T) {
	c := &layout.Cell{Name: "region"}
	for i := int64(0); i < 8; i++ {
		c.AddRect(layout.LayerM1, geom.R(i*40, 0, i*40+20, 2000), "", "bitline")
	}
	s, err := FromCell(c)
	if err != nil {
		t.Fatal(err)
	}
	lib := NewLibrary("TEST")
	lib.Structs = []Structure{s}
	var buf bytes.Buffer
	if err := lib.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Structs[0].Boundaries) != 8 {
		t.Errorf("bitlines = %d", len(back.Structs[0].Boundaries))
	}
}

func BenchmarkWrite(b *testing.B) {
	c := &layout.Cell{Name: "region"}
	for i := int64(0); i < 512; i++ {
		c.AddRect(layout.LayerM1, geom.R(i*40, 0, i*40+20, 2000), "", "")
	}
	s, err := FromCell(c)
	if err != nil {
		b.Fatal(err)
	}
	lib := NewLibrary("BENCH")
	lib.Structs = []Structure{s}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := lib.Write(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

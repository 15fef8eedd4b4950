package chipgen

import (
	"slices"
	"testing"

	"repro/internal/chips"
	"repro/internal/geom"
	"repro/internal/layout"
)

func TestGenerateAllChips(t *testing.T) {
	for _, c := range chips.All() {
		cfg := DefaultConfig(c)
		r, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		if r.Truth.Bitlines != 8 {
			t.Errorf("%s: bitlines = %d, want 8", c.ID, r.Truth.Bitlines)
		}
		if r.Truth.Topology != c.Topology {
			t.Errorf("%s: topology mismatch", c.ID)
		}
		if len(r.Cell.Shapes) == 0 {
			t.Fatalf("%s: empty layout", c.ID)
		}
		if r.Truth.RegionBounds.Empty() {
			t.Errorf("%s: empty region bounds", c.ID)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Errorf("nil chip should fail")
	}
	cfg := DefaultConfig(chips.ByID("A4"))
	cfg.Units = 0
	if _, err := Generate(cfg); err == nil {
		t.Errorf("zero units should fail")
	}
	cfg = DefaultConfig(chips.ByID("A4"))
	cfg.MATRows = -1
	if _, err := GenerateMAT(cfg, &layout.Cell{}, 0); err == nil {
		t.Errorf("negative MATRows should fail")
	}
}

func TestBlockOrderColumnFirst(t *testing.T) {
	// Section V-C: column transistors are always the first elements
	// after the MAT.
	for _, c := range chips.All() {
		r, err := Generate(DefaultConfig(c))
		if err != nil {
			t.Fatal(err)
		}
		for _, blocks := range [][]Block{r.Truth.BlocksSA1, r.Truth.BlocksSA2} {
			if len(blocks) == 0 || blocks[0].Name != "column" {
				t.Errorf("%s: first block %q, want column", c.ID, blocks[0].Name)
			}
			for i := 1; i < len(blocks); i++ {
				if blocks[i].X0 < blocks[i-1].X1 {
					t.Errorf("%s: block %s overlaps previous", c.ID, blocks[i].Name)
				}
			}
			last := blocks[len(blocks)-1]
			if last.Name != "lsa" {
				t.Errorf("%s: last block %q, want lsa (datapath latch)", c.ID, last.Name)
			}
		}
	}
}

func TestTopologyBlockSets(t *testing.T) {
	for _, c := range chips.All() {
		r, err := Generate(DefaultConfig(c))
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, b := range r.Truth.BlocksSA1 {
			names[b.Name] = true
		}
		if c.Topology == chips.OCSA {
			for _, want := range []string{"iso", "oc", "pre"} {
				if !names[want] {
					t.Errorf("%s: OCSA missing block %s", c.ID, want)
				}
			}
			if names["eq"] {
				t.Errorf("%s: OCSA must not have equalizer block", c.ID)
			}
			if got := r.Truth.CommonGateNets; len(got) != 3 {
				t.Errorf("%s: common gate nets %v, want 3", c.ID, got)
			}
		} else {
			for _, want := range []string{"eq", "pre"} {
				if !names[want] {
					t.Errorf("%s: classic missing block %s", c.ID, want)
				}
			}
			if names["iso"] || names["oc"] {
				t.Errorf("%s: classic must not have ISO/OC blocks", c.ID)
			}
			if got := r.Truth.CommonGateNets; len(got) != 1 || got[0] != "PEQ" {
				t.Errorf("%s: common gate nets %v, want [PEQ]", c.ID, got)
			}
		}
	}
}

func TestTwoStackedSAs(t *testing.T) {
	// All chips place two stacked SAs between MATs (Fig. 10).
	r, err := Generate(DefaultConfig(chips.ByID("C4")))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Truth.BlocksSA1) == 0 || len(r.Truth.BlocksSA2) == 0 {
		t.Fatal("both SA bands must exist")
	}
	sa1End := r.Truth.BlocksSA1[len(r.Truth.BlocksSA1)-1].X1
	sa2Start := r.Truth.BlocksSA2[0].X0
	if sa2Start < sa1End {
		t.Errorf("SA2 (%d) must follow SA1 (%d)", sa2Start, sa1End)
	}
}

func TestBitlineBreaksOnlyOnOCSA(t *testing.T) {
	for _, id := range []string{"C4", "B5"} {
		c := chips.ByID(id)
		r, err := Generate(DefaultConfig(c))
		if err != nil {
			t.Fatal(err)
		}
		// Count M1 bitline segments per net.
		segs := map[string]int{}
		for _, s := range r.Cell.Shapes {
			if s.Layer == layout.LayerM1 && s.Role == "bitline" {
				segs[s.Net]++
			}
		}
		if len(segs) != 8 {
			t.Fatalf("%s: bitline nets = %d, want 8", id, len(segs))
		}
		for net, n := range segs {
			if c.Topology == chips.Classic && c.Vendor != chips.VendorA {
				if n != 1 {
					t.Errorf("%s: classic bitline %s has %d segments, want 1", id, net, n)
				}
			}
			if c.Topology == chips.OCSA && n < 2 {
				t.Errorf("%s: OCSA bitline %s has %d segments, want >=2 (ISO break)", id, net, n)
			}
		}
	}
}

func TestVendorAM2Routing(t *testing.T) {
	for _, id := range []string{"A4", "A5"} {
		r, err := Generate(DefaultConfig(chips.ByID(id)))
		if err != nil {
			t.Fatal(err)
		}
		if !r.Truth.M2RoutedBitlines {
			t.Errorf("%s: vendor A must route second-band bitlines on M2", id)
		}
		var m2bl int
		for _, s := range r.Cell.Shapes {
			if s.Layer == layout.LayerM2 && s.Role == "bitline-m2" {
				m2bl++
			}
		}
		// All 8 bitlines traverse the other band on M2.
		if m2bl != 8 {
			t.Errorf("%s: M2 bitline segments = %d, want 8", id, m2bl)
		}
	}
	r, err := Generate(DefaultConfig(chips.ByID("B5")))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Cell.Shapes {
		if s.Role == "bitline-m2" {
			t.Errorf("B5 must not have M2-routed bitlines")
		}
	}
}

func TestTransistorCounts(t *testing.T) {
	// Per band and unit: 2 column + 2 PSA + 2 NSA + 2 LSA = 8
	// individual transistors; classic adds 1 EQ bridge + 2 PRE series;
	// OCSA adds 2 ISO + 1 OC + 2 PRE. Two bands, two units each.
	classic := 2 * 2 * (8 + 3)
	ocsa := 2 * 2 * (8 + 5)
	for _, c := range chips.All() {
		r, err := Generate(DefaultConfig(c))
		if err != nil {
			t.Fatal(err)
		}
		want := classic
		if c.Topology == chips.OCSA {
			want = ocsa
		}
		if r.Truth.TransistorCount != want {
			t.Errorf("%s: transistors = %d, want %d", c.ID, r.Truth.TransistorCount, want)
		}
	}
}

func TestGateActiveOverlapMatchesDims(t *testing.T) {
	// Ground truth: each placed gate's intersection with its active
	// must measure the dataset W/L (within integer rounding).
	c := chips.ByID("C4")
	r, err := Generate(DefaultConfig(c))
	if err != nil {
		t.Fatal(err)
	}
	gates := r.Cell.WithRole("gate:nSA")
	if len(gates) == 0 {
		t.Fatal("no nSA gates")
	}
	actives := r.Cell.WithRole("active:nSA")
	want, _ := c.Dim(chips.NSA)
	for _, g := range gates {
		found := false
		for _, a := range actives {
			ov := g.Rect.Intersect(a.Rect)
			if ov.Empty() {
				continue
			}
			found = true
			// Latch: W along X, L along Y.
			if ov.W() != int64(want.W) {
				t.Errorf("nSA overlap W = %d, want %v", ov.W(), want.W)
			}
			if ov.H() != int64(want.L) {
				t.Errorf("nSA overlap L = %d, want %v", ov.H(), want.L)
			}
		}
		if !found {
			t.Errorf("gate %v overlaps no active", g.Rect)
		}
	}
}

func TestSeriesStripDims(t *testing.T) {
	// Common-gate strip elements: W along Y, L along X.
	c := chips.ByID("B5")
	r, err := Generate(DefaultConfig(c))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := c.Dim(chips.Isolation)
	var checked int
	strips := r.Cell.WithRole("gate:isolation")
	actives := r.Cell.WithRole("active:isolation")
	for _, g := range strips {
		for _, a := range actives {
			ov := g.Rect.Intersect(a.Rect)
			if ov.Empty() {
				continue
			}
			checked++
			if ov.H() != int64(want.W) {
				t.Errorf("ISO overlap W = %d, want %v", ov.H(), want.W)
			}
			if ov.W() != int64(want.L) {
				t.Errorf("ISO overlap L = %d, want %v", ov.W(), want.L)
			}
		}
	}
	if checked != 8 { // 2 bands x 2 units x 2 bitlines
		t.Errorf("ISO transistors checked = %d, want 8", checked)
	}
}

func TestCommonGateStripsSpanRegion(t *testing.T) {
	r, err := Generate(DefaultConfig(chips.ByID("B5")))
	if err != nil {
		t.Fatal(err)
	}
	rw := r.Truth.RegionBounds.H()
	for _, role := range []string{"gate:isolation", "gate:precharge"} {
		for _, g := range r.Cell.WithRole(role) {
			if g.Rect.H() < rw {
				t.Errorf("%s strip spans %d of %d", role, g.Rect.H(), rw)
			}
		}
	}
	// The OC bus spans the region even though per-unit gates do not.
	bus := r.Cell.WithRole("gatebus:offset-cancel")
	if len(bus) != 2 { // one per band
		t.Fatalf("OC buses = %d, want 2", len(bus))
	}
	for _, g := range bus {
		if g.Rect.H() < rw {
			t.Errorf("OC bus spans %d of %d", g.Rect.H(), rw)
		}
	}
}

func TestGenerateDieStructure(t *testing.T) {
	cfg := DefaultConfig(chips.ByID("C5"))
	d, err := GenerateDie(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.MATLeft[1] != d.SA[0] || d.SA[1] != d.MATRight[0] {
		t.Errorf("zones not contiguous: %v %v %v", d.MATLeft, d.SA, d.MATRight)
	}
	// Capacitors only inside MATs.
	for _, s := range d.Cell.WithRole("capacitor") {
		inLeft := s.Rect.Min.X >= d.MATLeft[0] && s.Rect.Max.X <= d.MATLeft[1]
		inRight := s.Rect.Min.X >= d.MATRight[0] && s.Rect.Max.X <= d.MATRight[1]
		if !inLeft && !inRight {
			t.Fatalf("capacitor at %v outside MATs", s.Rect)
		}
	}
	// Wordlines exist and are confined to MATs.
	wl := d.Cell.WithRole("wordline")
	if len(wl) != 2*cfg.MATRows {
		t.Errorf("wordlines = %d, want %d", len(wl), 2*cfg.MATRows)
	}
	// Truth blocks shifted into die coordinates.
	if d.Truth.BlocksSA1[0].X0 < d.SA[0] {
		t.Errorf("truth blocks not shifted into die frame")
	}
}

func TestVoxelizeBasics(t *testing.T) {
	c := chips.ByID("B4") // coarsest features
	r, err := Generate(DefaultConfig(c))
	if err != nil {
		t.Fatal(err)
	}
	v, err := Voxelize(r.Cell, r.Truth.RegionBounds, 8)
	if err != nil {
		t.Fatal(err)
	}
	if v.NY != StackDepth {
		t.Errorf("NY = %d, want %d", v.NY, StackDepth)
	}
	if !slices.Contains(v.Data, MatOxide) {
		t.Errorf("no oxide background")
	}
	for _, m := range []Material{MatM1, MatGate, MatActive, MatContact, MatVia, MatM2} {
		if !slices.Contains(v.Data, m) {
			t.Errorf("material %s absent from voxelization", m)
		}
	}
	// M1 must live in its depth band only.
	band, _ := Band(layout.LayerM1)
	for z := 0; z < v.NZ; z += 7 {
		for y := 0; y < v.NY; y++ {
			for x := 0; x < v.NX; x += 11 {
				if v.At(x, y, z) == MatM1 && (y < band.Y0 || y >= band.Y1) {
					t.Fatalf("M1 voxel outside band at y=%d", y)
				}
			}
		}
	}
}

func TestVoxelizeErrors(t *testing.T) {
	cell := &layout.Cell{}
	if _, err := Voxelize(cell, geom.R(0, 0, 100, 100), 0); err == nil {
		t.Errorf("zero voxel size should fail")
	}
	if _, err := Voxelize(cell, geom.Rect{}, 4); err == nil {
		t.Errorf("empty window should fail")
	}
}

func TestMaterialStrings(t *testing.T) {
	if MatM1.String() != "M1" || MatOxide.String() != "oxide" {
		t.Errorf("material names wrong")
	}
	if Material(200).String() == "" {
		t.Errorf("unknown material name empty")
	}
	seen := map[Material]layout.Layer{}
	for _, l := range layout.Layers() {
		m := MaterialOf(l)
		if m == MatOxide {
			t.Errorf("layer %s maps to oxide", l)
		}
		if prev, dup := seen[m]; dup {
			t.Errorf("layers %s and %s share material %s", prev, l, m)
		}
		seen[m] = l
	}
}

func TestMATHoneycombOffset(t *testing.T) {
	cfg := DefaultConfig(chips.ByID("C4"))
	cell := &layout.Cell{Name: "mat"}
	if _, err := GenerateMAT(cfg, cell, 0); err != nil {
		t.Fatal(err)
	}
	caps := cell.WithRole("capacitor")
	if len(caps) == 0 {
		t.Fatal("no capacitors")
	}
	// Honeycomb: capacitors appear at two distinct Y phases.
	phases := map[int64]bool{}
	pitch := 2 * f(cfg.Chip)
	for _, s := range caps {
		phases[s.Rect.Min.Y%pitch] = true
	}
	if len(phases) < 2 {
		t.Errorf("capacitor rows not offset (phases: %v)", phases)
	}
}

func BenchmarkGenerateRegion(b *testing.B) {
	cfg := DefaultConfig(chips.ByID("B5"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVoxelize(b *testing.B) {
	r, err := Generate(DefaultConfig(chips.ByID("B5")))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Voxelize(r.Cell, r.Truth.RegionBounds, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCropX(t *testing.T) {
	r, err := Generate(DefaultConfig(chips.ByID("B4")))
	if err != nil {
		t.Fatal(err)
	}
	v, err := Voxelize(r.Cell, r.Truth.RegionBounds, 8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := v.CropX(10, 50)
	if err != nil {
		t.Fatal(err)
	}
	if c.NX != 40 || c.NY != v.NY || c.NZ != v.NZ {
		t.Fatalf("crop dims %dx%dx%d", c.NX, c.NY, c.NZ)
	}
	if c.At(0, 5, 3) != v.At(10, 5, 3) {
		t.Errorf("crop content wrong")
	}
	if c.BoundsNM.Min.X != v.BoundsNM.Min.X+10*8 {
		t.Errorf("crop bounds %v", c.BoundsNM)
	}
	if _, err := v.CropX(-1, 10); err == nil {
		t.Errorf("negative crop should fail")
	}
	if _, err := v.CropX(50, 50); err == nil {
		t.Errorf("empty crop should fail")
	}
	if _, err := v.CropX(0, v.NX+1); err == nil {
		t.Errorf("oversize crop should fail")
	}
}

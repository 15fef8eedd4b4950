package chipgen

import (
	"fmt"

	"repro/internal/chips"
	"repro/internal/geom"
	"repro/internal/layout"
)

// builder carries the state of a region build.
type builder struct {
	cfg   Config
	chip  *chips.Chip
	cell  *layout.Cell
	truth *GroundTruth
	ff    int64 // feature size
	pitch int64 // bitline pitch = 2F
	nb    int   // bitline count
	rw    int64 // region width along Y = nb * pitch
	// blCuts records, per bitline, the x-intervals where the M1 wire
	// is interrupted (isolation breaks).
	blCuts map[int][][2]int64
	// rngState drives the per-instance dimension jitter.
	rngState uint64
}

// jitter returns v perturbed by up to ±JitterPct percent (deterministic
// in JitterSeed), modeling process variation across instances.
func (b *builder) jitter(v int64) int64 {
	if b.cfg.JitterPct == 0 {
		return v
	}
	b.rngState = b.rngState*6364136223846793005 + 1442695040888963407
	u := float64(b.rngState>>11)/float64(1<<53)*2 - 1 // [-1, 1)
	out := v + int64(float64(v)*b.cfg.JitterPct/100*u)
	if out < 1 {
		out = 1
	}
	return out
}

// jdim fetches an element's dimensions with per-instance jitter applied.
func (b *builder) jdim(e chips.Element) (w, l int64) {
	w, l = dim(b.chip, e)
	return b.jitter(w), b.jitter(l)
}

// Generate builds the SA region of the configured chip: transition bands,
// SA1 and SA2 blocks, bitlines, rails, and all transistors, with ground
// truth recorded.
func Generate(cfg Config) (*Region, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := cfg.Chip
	b := &builder{
		cfg:      cfg,
		chip:     c,
		cell:     &layout.Cell{Name: "SA_region_" + c.ID},
		ff:       f(c),
		nb:       4 * cfg.Units,
		blCuts:   make(map[int][][2]int64),
		rngState: uint64(cfg.JitterSeed)*2654435761 + 99991,
	}
	b.pitch = 2 * b.ff
	b.rw = int64(b.nb) * b.pitch
	truth := &GroundTruth{
		Chip:     c,
		Topology: c.Topology,
		Bitlines: b.nb,
		PitchNM:  b.pitch,
		Dims:     c.Dims,
	}
	b.truth = truth

	trans := int64(c.TransitionNM)
	x := trans
	sa1, end1 := b.buildBand(x, 0)
	truth.BlocksSA1 = sa1
	x = end1 + 2*b.ff
	sa2, end2 := b.buildBand(x, 1)
	truth.BlocksSA2 = sa2
	total := end2 + trans
	truth.RegionBounds = geom.R(0, 0, total, b.rw)

	b.routeBitlines(total, append(append([]Block(nil), sa1...), sa2...))

	switch c.Topology {
	case chips.Classic:
		truth.CommonGateNets = []string{"PEQ"}
	case chips.OCSA:
		truth.CommonGateNets = []string{"ISO", "OC", "PRE"}
	}
	truth.M2RoutedBitlines = c.Vendor == chips.VendorA
	return &Region{Cell: b.cell, Truth: *truth}, nil
}

// blY returns the center Y of bitline k.
func (b *builder) blY(k int) int64 { return int64(k)*b.pitch + b.pitch/2 }

// servedBitlines returns the bitline indices served by band 0 (SA1) or
// band 1 (SA2): band 0 takes pairs (4u, 4u+1), band 1 (4u+2, 4u+3).
func (b *builder) servedBitlines(band int) []int {
	var out []int
	for u := 0; u < b.cfg.Units; u++ {
		out = append(out, 4*u+2*band, 4*u+2*band+1)
	}
	return out
}

// buildBand lays out one SA band starting at x0 and returns its blocks
// plus the end coordinate.
func (b *builder) buildBand(x0 int64, band int) ([]Block, int64) {
	c := b.chip
	var blocks []Block
	x := x0
	add := func(name string, build func(x0 int64) int64) {
		x1 := build(x)
		blocks = append(blocks, Block{Name: name, X0: x, X1: x1})
		x = x1 + b.ff
	}

	add("column", func(x0 int64) int64 { return b.buildColumn(x0, band) })
	if c.Topology == chips.OCSA {
		add("iso", func(x0 int64) int64 { return b.buildSeriesStrip(x0, band, chips.Isolation, "ISO", true) })
		add("oc", func(x0 int64) int64 { return b.buildBridge(x0, band, chips.OffsetCancel, "OC") })
	}
	add("psa", func(x0 int64) int64 { return b.buildLatchPair(x0, band, chips.PSA, "LA", true) })
	add("nsa", func(x0 int64) int64 { return b.buildLatchPair(x0, band, chips.NSA, "LAB", true) })
	if c.Topology == chips.Classic {
		add("eq", func(x0 int64) int64 { return b.buildBridge(x0, band, chips.Equalizer, "PEQ") })
		add("pre", func(x0 int64) int64 { return b.buildSeriesStrip(x0, band, chips.Precharge, "PEQ", false) })
	} else {
		add("pre", func(x0 int64) int64 { return b.buildSeriesStrip(x0, band, chips.Precharge, "PRE", false) })
	}
	add("lsa", func(x0 int64) int64 { return b.buildLatchPair(x0, band, chips.LSA, "LIO", false) })
	return blocks, x
}

// buildColumn places the column multiplexer transistors: individual gates
// (distinct CSL control per bitline mod 4), series with the bitline, in
// two staggered sub-bands so that same-sub-band neighbors sit 4 pitches
// apart. Returns the block end.
func (b *builder) buildColumn(x0 int64, band int) int64 {
	ff := b.ff
	_, lNom := dim(b.chip, chips.Column)
	// Sub-bands are separated by 4F of clear space so beam blur cannot
	// bridge adjacent actives in the reconstructed planar views.
	sub := lNom + 8*ff
	for _, k := range b.servedBitlines(band) {
		w, l := b.jdim(chips.Column)
		xg := x0 + int64(k%2)*sub + 2*ff
		y := b.blY(k)
		gate := geom.R(xg, y-w/2-ff, xg+l, y+w/2+ff)
		active := geom.R(xg-2*ff, y-w/2, xg+l+2*ff, y+w/2)
		b.cell.AddRect(layout.LayerGate, gate, fmt.Sprintf("CSL%d", k%4), "gate:column")
		b.cell.AddRect(layout.LayerActive, active, "", "active:column")
		b.contact(geom.R(xg-2*ff, y-ff/2, xg-ff, y+ff/2), blNet(k))
		b.contact(geom.R(xg+l+ff, y-ff/2, xg+l+2*ff, y+ff/2), blNet(k))
		b.truth.TransistorCount++
	}
	return x0 + 2*sub
}

// buildSeriesStrip places a common-gate element in series with each
// served bitline. Because the element widths exceed the bitline pitch,
// the strip is split into two staggered sub-strips (even and odd bitlines
// of each pair), joined by a gate connector below the region so the
// whole structure is still one gate group spanning the region along Y —
// matching the real layouts where common gates snake across the SA
// region. When brk is true the bitline is broken here (isolation);
// otherwise the second contact connects through an M1 stub and via to an
// M2 rail (precharge to Vpre).
func (b *builder) buildSeriesStrip(x0 int64, band int, e chips.Element, net string, brk bool) int64 {
	ff := b.ff
	wNom, l := dim(b.chip, e)
	sub := l + 8*ff // 4F of clear space between the sub-strips
	gx := func(parity int64) int64 { return x0 + 2*ff + parity*sub }
	// Two sub-strips spanning the region, plus the connector that makes
	// them one electrical gate.
	for q := int64(0); q < 2; q++ {
		b.cell.AddRect(layout.LayerGate, geom.R(gx(q), -2*ff, gx(q)+l, b.rw+2*ff), net, "gate:"+e.String())
	}
	b.cell.AddRect(layout.LayerGate, geom.R(gx(0), -2*ff, gx(1)+l, -ff), net, "gateconn:"+e.String())
	end := gx(1) + l + 2*ff
	railX := end + 2*ff
	for _, k := range b.servedBitlines(band) {
		w := b.jitter(wNom)
		xg := gx(int64(k % 2))
		y := b.blY(k)
		active := geom.R(xg-2*ff, y-w/2, xg+l+2*ff, y+w/2)
		b.cell.AddRect(layout.LayerActive, active, "", "active:"+e.String())
		b.contact(geom.R(xg-2*ff, y-ff/2, xg-ff, y+ff/2), blNet(k))
		if brk {
			// The bitline is interrupted here; the drain contact sits on
			// the sense-side segment.
			b.contact(geom.R(xg+l+ff, y-ff/2, xg+l+2*ff, y+ff/2), blNet(k)+".sense")
			b.blCuts[k] = append(b.blCuts[k], [2]int64{xg - ff, xg + l + ff})
		} else {
			// The bitline continues through a precharge element, so the
			// drain contact must leave the track before reaching the
			// Vpre rail: it sits at the active edge away from the wire
			// (downward for even bitlines, upward for odd — on vendor A
			// the downward neighbor track is M2-routed and free).
			cs := ff / 2
			var cy0 int64
			if k%2 == 0 {
				cy0 = y - w/2
			} else {
				cy0 = y + w/2 - cs
			}
			b.contact(geom.R(xg+l+ff, cy0, xg+l+2*ff, cy0+cs), "VPRE")
			stub := geom.R(xg+l+ff, cy0, railX+ff, cy0+cs)
			b.cell.AddRect(layout.LayerM1, stub, "VPRE", "stub")
			b.cell.AddRect(layout.LayerVia1, geom.R(railX, cy0, railX+ff, cy0+cs), "VPRE", "via")
		}
		b.truth.TransistorCount++
	}
	if !brk {
		b.railM2(railX, railX+2*ff, "VPRE", band)
		return railX + 2*ff
	}
	return end
}

// buildBridge places a bridging element per unit (equalizer on classic
// chips, offset-cancellation on OCSA chips): an active region spanning
// from below the unit's first bitline to above its second, end contacts
// strapped to the two bitlines, and a single crossing gate connected to a
// gate bus that spans the region along Y (the common PEQ/OC gate).
func (b *builder) buildBridge(x0 int64, band int, e chips.Element, net string) int64 {
	ff := b.ff
	cs := ff / 2 // contact size
	w, l := dim(b.chip, e)
	xa := x0 + 4*ff // leave room for the gate bus at x0+1F..2F
	busX := x0 + ff
	b.cell.AddRect(layout.LayerGate, geom.R(busX, 0, busX+ff, b.rw), net, "gatebus:"+e.String())
	wNom, lNom := w, l
	for u := 0; u < b.cfg.Units; u++ {
		w, l = b.jitter(wNom), b.jitter(lNom)
		k0 := 4*u + 2*band
		y0, y1 := b.blY(k0), b.blY(k0+1)
		ym := (y0 + y1) / 2
		// Active spans half a pitch beyond the pair so the gate fits
		// between the end contacts even at small pitch.
		ya := y0 - b.pitch/2 - cs
		yb := y1 + b.pitch/2 + cs
		active := geom.R(xa, ya, xa+w, yb)
		b.cell.AddRect(layout.LayerActive, active, "", "active:"+e.String())
		// Gate crosses the active at mid-height; a tongue reaches the
		// bus on the left without passing over the active.
		gate := geom.R(busX+ff, ym-l/2, xa+w+ff, ym+l/2)
		b.cell.AddRect(layout.LayerGate, gate, net, "gate:"+e.String())
		// End contacts (inner-anchored to stay clear of the foreign
		// bitline tracks) plus M1 straps to the two bitlines.
		cx := xa + w/2
		cLo := y0 - b.pitch/2
		b.contact(geom.R(cx-cs/2, cLo, cx+cs/2, cLo+cs), blNet(k0))
		b.strapY(cx, cLo, y0, blNet(k0))
		cHi := y1 + b.pitch/2
		b.contact(geom.R(cx-cs/2, cHi-cs, cx+cs/2, cHi), blNet(k0+1))
		b.strapY(cx, y1, cHi, blNet(k0+1))
		b.truth.TransistorCount++
	}
	return xa + w + 2*ff
}

// buildLatchPair places a coupled transistor pair per unit as an H-shaped
// shared active (Fig. 7c): two vertical channel columns whose drains sit
// directly on the unit's bitlines (LSA drains use off-track pads), joined
// at the bottom by an active bridge carrying the shared source contact,
// which is wired by stub and via to an M2 rail. The bridge dips below the
// neighboring bitline track so its contact stays clear of foreign M1.
func (b *builder) buildLatchPair(x0 int64, band int, e chips.Element, rail string, toBitlines bool) int64 {
	ff := b.ff
	cs := ff / 2 // latch contacts are half-pitch
	const m = 1  // placement margin (nm)
	w, l := dim(b.chip, e)
	xa := x0 + 2*ff           // column A left edge
	xb := xa + w + 2*ff + 2*m // column B left edge
	railX := xb + w + 2*ff
	wNom, lNom := w, l
	for u := 0; u < b.cfg.Units; u++ {
		// Per-unit process variation; the column positions stay on the
		// nominal grid, and widths may only shrink in place so the
		// block budget holds.
		if jw := b.jitter(wNom); jw < wNom {
			w = jw
		} else {
			w = wNom
		}
		l = b.jitter(lNom)
		k0 := 4*u + 2*band
		y0, y1 := b.blY(k0), b.blY(k0+1)
		// Drain positions: on the bitline tracks for the SA latches,
		// off-track (with a local pad) for the LSA.
		yd1, yd2 := y0, y1
		d1net, d2net := blNet(k0), blNet(k0+1)
		if !toBitlines {
			yd1, yd2 = y0-b.pitch/2, y1+b.pitch/2
			d1net, d2net = "LIO1", "LIO2"
		}
		// Bridge source centered in the gap between the two foreign
		// bitline tracks below the unit, so its contact clears both
		// even after segmentation quantization. If the column-A gate
		// needs more room the bridge drops further — which only
		// happens on vendor A, whose neighboring tracks travel on M2.
		mid := b.blY(k0-1) - b.pitch/2
		bridgeTop := mid + cs/2
		if lim := yd1 - cs/2 - m - l - m; lim < bridgeTop {
			bridgeTop = lim
		}
		bridgeBot := bridgeTop - cs
		cxa := xa + w/2
		cxb := xb + w/2
		// The H-shaped active: two columns plus the source bridge.
		b.cell.AddRect(layout.LayerActive, geom.R(xa, bridgeBot-m, xa+w, yd1+cs/2+m), "", "active:"+e.String())
		b.cell.AddRect(layout.LayerActive, geom.R(xb, bridgeBot-m, xb+w, yd2+cs/2+m), "", "active:"+e.String())
		b.cell.AddRect(layout.LayerActive, geom.R(xa, bridgeBot-m, xb+w, bridgeTop+m), "", "activebridge:"+e.String())
		// Drain contacts.
		b.contact(geom.R(cxa-cs/2, yd1-cs/2, cxa+cs/2, yd1+cs/2), d1net)
		b.contact(geom.R(cxb-cs/2, yd2-cs/2, cxb+cs/2, yd2+cs/2), d2net)
		if !toBitlines {
			// Local M1 pads so the LSA drains are not dangling.
			b.cell.AddRect(layout.LayerM1, geom.R(cxa-cs, yd1-cs/2, cxa+cs, yd1+cs/2), d1net, "pad")
			b.cell.AddRect(layout.LayerM1, geom.R(cxb-cs, yd2-cs/2, cxb+cs, yd2+cs/2), d2net, "pad")
		}
		// Shared source contact on the bridge, between the columns,
		// with its stub and via to the rail.
		sx := (xa + w + xb) / 2
		b.contact(geom.R(sx-cs/2, bridgeBot, sx+cs/2, bridgeTop), rail)
		b.cell.AddRect(layout.LayerM1, geom.R(sx-cs/2, bridgeBot, railX+ff, bridgeTop), rail, "stub")
		b.cell.AddRect(layout.LayerVia1, geom.R(railX, bridgeBot, railX+ff, bridgeTop), rail, "via")
		// Gates: one per column, between the bridge and the drain,
		// cross-coupled (the gate over the k0 column is controlled by
		// the opposite side).
		g1hi := yd1 - cs/2 - m
		g2hi := yd2 - cs/2 - m
		gnet1, gnet2 := blNet(k0+1), blNet(k0)
		if !toBitlines {
			gnet1, gnet2 = "LIO2", "LIO1"
		}
		b.cell.AddRect(layout.LayerGate, geom.R(xa-ff, g1hi-l, xa+w+ff, g1hi), gnet1, "gate:"+e.String())
		b.cell.AddRect(layout.LayerGate, geom.R(xb-ff, g2hi-l, xb+w+ff, g2hi), gnet2, "gate:"+e.String())
		b.truth.TransistorCount += 2
	}
	b.railM2(railX, railX+2*ff, rail, band)
	return railX + 2*ff
}

// contact places a contact-layer rectangle.
func (b *builder) contact(r geom.Rect, net string) {
	b.cell.AddRect(layout.LayerContact, r, net, "contact")
}

// strapY places a vertical M1 strap at x cx covering [yA, yB].
func (b *builder) strapY(cx, yA, yB int64, net string) {
	if yA > yB {
		yA, yB = yB, yA
	}
	ff := b.ff
	b.cell.AddRect(layout.LayerM1, geom.R(cx-ff/2, yA, cx+ff/2, yB+ff/2), net, "strap")
}

// railM2 places an M2 rail spanning the region along Y, broken around the
// M2-routed bitline tracks on vendor A chips. band identifies which SA
// band the rail belongs to: the M2 bitlines crossing it are the ones
// served by the other band.
func (b *builder) railM2(x0, x1 int64, net string, band int) {
	// Rails overhang the bitline window so the first unit's source
	// bridge (below bitline 0) still reaches them.
	lo, hi := -4*b.ff, b.rw+4*b.ff
	if b.chip.Vendor != chips.VendorA {
		b.cell.AddRect(layout.LayerM2, geom.R(x0, lo, x1, hi), net, "rail")
		return
	}
	// Vendor A: the other band's bitlines travel on M2 across this
	// band; the rail yields at their tracks (a simplification of the
	// real multi-layer routing).
	other := 1 - band
	ff := b.ff
	y := lo
	for k := 0; k < b.nb; k++ {
		if k%4 != 2*other && k%4 != 2*other+1 {
			continue
		}
		by := b.blY(k)
		if by-ff > y {
			b.cell.AddRect(layout.LayerM2, geom.R(x0, y, x1, by-ff), net, "rail")
		}
		y = by + ff
	}
	if y < hi {
		b.cell.AddRect(layout.LayerM2, geom.R(x0, y, x1, hi), net, "rail")
	}
}

// blNet names bitline k's electrical net.
func blNet(k int) string { return fmt.Sprintf("BL%d", k) }

// routeBitlines lays the M1 bitlines across the region. Bitlines served
// by a band break at that band's isolation strip (OCSA). On vendor A
// chips, the bitlines destined for the other band are translated to M2
// across the band they merely traverse.
func (b *builder) routeBitlines(total int64, all []Block) {
	ff := b.ff
	for k := 0; k < b.nb; k++ {
		y := b.blY(k)
		segs := [][2]int64{{0, total}}
		// Breaks recorded by the isolation strips.
		for _, cut := range b.blCuts[k] {
			segs = splitSegs(segs, cut[0], cut[1])
		}
		// Vendor A: M2 translation across the traversed band.
		if b.chip.Vendor == chips.VendorA {
			other := otherBandSpan(all, k)
			o0, o1 := other[0], other[1]
			segs = splitSegs(segs, o0-2*ff, o1+2*ff)
			b.cell.AddRect(layout.LayerVia1, geom.R(o0-3*ff, y-ff/2, o0-2*ff, y+ff/2), blNet(k), "via")
			b.cell.AddRect(layout.LayerM2, geom.R(o0-3*ff, y-ff, o1+3*ff, y+ff), blNet(k), "bitline-m2")
			b.cell.AddRect(layout.LayerVia1, geom.R(o1+2*ff, y-ff/2, o1+3*ff, y+ff/2), blNet(k), "via")
		}
		net := blNet(k)
		for _, s := range segs {
			if s[1] <= s[0] {
				continue
			}
			b.cell.AddRect(layout.LayerM1, geom.R(s[0], y-ff/2, s[1], y+ff/2), net, "bitline")
		}
	}
}

// otherBandSpan returns the x-extent of the band NOT serving bitline k
// (the first half of all is SA1, the second SA2).
func otherBandSpan(all []Block, k int) [2]int64 {
	half := len(all) / 2
	var bs []Block
	if k%4 == 0 || k%4 == 1 {
		bs = all[half:]
	} else {
		bs = all[:half]
	}
	return [2]int64{bs[0].X0, bs[len(bs)-1].X1}
}

// splitSegs removes [cut0, cut1] from every segment.
func splitSegs(segs [][2]int64, cut0, cut1 int64) [][2]int64 {
	var out [][2]int64
	for _, s := range segs {
		if cut1 <= s[0] || cut0 >= s[1] {
			out = append(out, s)
			continue
		}
		if cut0 > s[0] {
			out = append(out, [2]int64{s[0], cut0})
		}
		if cut1 < s[1] {
			out = append(out, [2]int64{cut1, s[1]})
		}
	}
	return out
}

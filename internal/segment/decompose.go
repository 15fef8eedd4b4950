package segment

// Run is a horizontal run of set pixels.
type run struct{ x0, x1 int }

// DecomposeTol splits a binary mask into axis-aligned rectangles by
// merging horizontal runs of consecutive rows. For rectilinear layouts
// (everything the SA region contains) tol 0 recovers the drawn rectangles
// exactly; an L-shaped component becomes two rectangles that still touch.
// Each rectangle is [x0, y0, x1, y1) in pixels. With tol > 0 a run whose
// endpoints differ from an open rectangle's by at most tol pixels extends
// it, and the rectangle keeps the union extent. This absorbs the corner
// rounding that beam blur introduces (otherwise a single wire decomposes
// into a stack of slivers).
func DecomposeTol(mask []bool, w, tol int) [][4]int {
	if w <= 0 || len(mask)%w != 0 {
		return nil
	}
	h := len(mask) / w
	type open struct {
		r  run
		y0 int
	}
	near := func(a, b run) bool {
		return absInt(a.x0-b.x0) <= tol && absInt(a.x1-b.x1) <= tol
	}
	var out [][4]int
	var prev []open
	for y := 0; y <= h; y++ {
		var runs []run
		if y < h {
			runs = rowRuns(mask[y*w : (y+1)*w])
		}
		var next []open
		used := make([]bool, len(prev))
		for _, r := range runs {
			extended := false
			for i, o := range prev {
				if !used[i] && near(o.r, r) {
					// Union extent: corner-rounded first/last rows must
					// not narrow the recovered rectangle.
					if r.x0 < o.r.x0 {
						o.r.x0 = r.x0
					}
					if r.x1 > o.r.x1 {
						o.r.x1 = r.x1
					}
					next = append(next, o)
					used[i] = true
					extended = true
					break
				}
			}
			if !extended {
				next = append(next, open{r: r, y0: y})
			}
		}
		for i, o := range prev {
			if !used[i] {
				out = append(out, [4]int{o.r.x0, o.y0, o.r.x1, y})
			}
		}
		prev = next
	}
	return out
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func rowRuns(row []bool) []run {
	var runs []run
	start := -1
	for x, v := range row {
		if v && start < 0 {
			start = x
		}
		if !v && start >= 0 {
			runs = append(runs, run{start, x})
			start = -1
		}
	}
	if start >= 0 {
		runs = append(runs, run{start, len(row)})
	}
	return runs
}

package segment

import (
	"sort"
	"testing"
	"testing/quick"
)

func rectsEqual(got [][4]int, want [][4]int) bool {
	if len(got) != len(want) {
		return false
	}
	sortRects(got)
	sortRects(want)
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func sortRects(rs [][4]int) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i][1] != rs[j][1] {
			return rs[i][1] < rs[j][1]
		}
		return rs[i][0] < rs[j][0]
	})
}

func TestDecomposeSingleRect(t *testing.T) {
	m := maskFromRects(10, 8, [][4]int{{2, 1, 7, 6}})
	got := DecomposeTol(m, 10, 0)
	if !rectsEqual(got, [][4]int{{2, 1, 7, 6}}) {
		t.Errorf("decompose = %v", got)
	}
}

func TestDecomposeLShape(t *testing.T) {
	// An L decomposes into two touching rectangles.
	m := maskFromRects(10, 10, [][4]int{{0, 0, 3, 8}, {0, 8, 8, 10}})
	got := DecomposeTol(m, 10, 0)
	if len(got) != 2 {
		t.Fatalf("L-shape rects = %v", got)
	}
}

func TestDecomposeSeparateRects(t *testing.T) {
	m := maskFromRects(20, 10, [][4]int{{0, 0, 5, 5}, {10, 2, 15, 9}})
	got := DecomposeTol(m, 20, 0)
	if !rectsEqual(got, [][4]int{{0, 0, 5, 5}, {10, 2, 15, 9}}) {
		t.Errorf("decompose = %v", got)
	}
}

func TestDecomposeEmptyAndInvalid(t *testing.T) {
	if got := DecomposeTol(make([]bool, 12), 4, 0); len(got) != 0 {
		t.Errorf("empty mask = %v", got)
	}
	if got := DecomposeTol(make([]bool, 10), 3, 0); got != nil {
		t.Errorf("invalid width should return nil")
	}
	if got := DecomposeTol(nil, 0, 0); got != nil {
		t.Errorf("zero width should return nil")
	}
}

func TestDecomposeTolAbsorbsCornerRounding(t *testing.T) {
	// A wire whose first and last rows are shaved by one pixel (the
	// morphological-opening artifact) must come back as ONE rectangle
	// with the full extent.
	w, h := 30, 6
	m := make([]bool, w*h)
	for y := 1; y < 5; y++ {
		x0, x1 := 0, 30
		if y == 1 || y == 4 {
			x0, x1 = 1, 29
		}
		for x := x0; x < x1; x++ {
			m[y*w+x] = true
		}
	}
	exact := DecomposeTol(m, w, 0)
	if len(exact) != 3 {
		t.Fatalf("exact decompose should split the rounded wire: %v", exact)
	}
	tol := DecomposeTol(m, w, 2)
	if len(tol) != 1 {
		t.Fatalf("tolerant decompose = %v, want 1 rect", tol)
	}
	if tol[0] != [4]int{0, 1, 30, 5} {
		t.Errorf("union extent = %v", tol[0])
	}
}

func TestDecomposeTolKeepsDistinctShapes(t *testing.T) {
	// Two stacked rects with clearly different extents must not merge
	// even with tolerance.
	m := maskFromRects(30, 10, [][4]int{{0, 0, 30, 4}, {10, 4, 20, 8}})
	got := DecomposeTol(m, 30, 2)
	if len(got) != 2 {
		t.Errorf("distinct shapes merged: %v", got)
	}
}

// Property: decomposition exactly tiles the mask (no tolerance).
func TestDecomposeCoversProperty(t *testing.T) {
	f := func(seed int64) bool {
		w, h := 16, 12
		m := make([]bool, w*h)
		s := uint64(seed)
		for i := range m {
			s = s*6364136223846793005 + 1
			m[i] = s>>62 == 0
		}
		rects := DecomposeTol(m, w, 0)
		cover := make([]int, w*h)
		for _, r := range rects {
			for y := r[1]; y < r[3]; y++ {
				for x := r[0]; x < r[2]; x++ {
					cover[y*w+x]++
				}
			}
		}
		for i := range m {
			want := 0
			if m[i] {
				want = 1
			}
			if cover[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

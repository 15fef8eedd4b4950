package volume

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/img"
)

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for zero dimension")
		}
	}()
	New(3, 0, 3)
}

func TestAtSetRoundTrip(t *testing.T) {
	v := New(3, 4, 5)
	v.Set(2, 3, 4, 7.5)
	if got := v.At(2, 3, 4); got != 7.5 {
		t.Errorf("At = %v", got)
	}
}

func TestFromStackAndSliceZ(t *testing.T) {
	a := img.New(4, 3)
	a.Fill(1)
	b := img.New(4, 3)
	b.Fill(2)
	v, err := FromStack([]*img.Gray{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if v.NX != 4 || v.NY != 3 || v.NZ != 2 {
		t.Fatalf("dims %dx%dx%d", v.NX, v.NY, v.NZ)
	}
	if v.At(1, 1, 0) != 1 {
		t.Errorf("slice 0 content wrong")
	}
	if v.At(0, 0, 1) != 2 {
		t.Errorf("slice 1 content wrong")
	}
}

func TestFromStackErrors(t *testing.T) {
	if _, err := FromStack(nil); err == nil {
		t.Errorf("expected empty stack error")
	}
	err := FromStack2Err(img.New(2, 2), img.New(3, 2))
	var sse *SliceSizeError
	if !errors.As(err, &sse) {
		t.Fatalf("mismatched slice: err %T = %v, want *SliceSizeError", err, err)
	}
	if *sse != (SliceSizeError{Index: 1, W: 3, H: 2, WantW: 2, WantH: 2}) {
		t.Errorf("SliceSizeError = %+v", *sse)
	}
}

// FromStack2Err runs FromStack on two slices and returns only the error.
func FromStack2Err(a, b *img.Gray) error {
	_, err := FromStack([]*img.Gray{a, b})
	return err
}

// A stack containing a nil or structurally invalid slice must be
// rejected with an error before volume construction — never reach the
// New panic or an index fault mid-pipeline.
func TestFromStackRejectsInvalidSlices(t *testing.T) {
	good := img.New(2, 2)
	cases := []struct {
		name string
		bad  *img.Gray
	}{
		{"nil", nil},
		{"zero-value", &img.Gray{}},
		{"non-positive-dims", &img.Gray{W: -1, H: 2}},
		{"truncated-pix", &img.Gray{W: 2, H: 2, Pix: make([]float64, 3)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("FromStack panicked: %v", r)
				}
			}()
			if err := FromStack2Err(good, tc.bad); err == nil {
				t.Errorf("expected a validation error")
			}
			// An invalid first slice must not panic either.
			if err := FromStack2Err(tc.bad, good); err == nil {
				t.Errorf("expected a validation error for slice 0")
			}
		})
	}
}

// A one-voxel depth band is the planar view at that depth.
func TestSliceYIsPlanarView(t *testing.T) {
	// Volume where value encodes coordinates: v = 100z + 10y + x.
	v := New(3, 3, 3)
	for z := 0; z < 3; z++ {
		for y := 0; y < 3; y++ {
			for x := 0; x < 3; x++ {
				v.Set(x, y, z, float64(100*z+10*y+x))
			}
		}
	}
	p, err := v.PlanarAverage(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.W != 3 || p.H != 3 {
		t.Fatalf("planar dims %dx%d", p.W, p.H)
	}
	// At planar (x=2, row z=1): expect 100*1 + 10*1 + 2 = 112.
	if got := p.At(2, 1); got != 112 {
		t.Errorf("planar sample = %v, want 112", got)
	}
	if _, err := v.PlanarAverage(3, 4); err == nil {
		t.Errorf("expected out-of-range error")
	}
}

func TestPlanarAverage(t *testing.T) {
	v := New(2, 4, 2)
	for y := 0; y < 4; y++ {
		for z := 0; z < 2; z++ {
			for x := 0; x < 2; x++ {
				v.Set(x, y, z, float64(y))
			}
		}
	}
	p, err := v.PlanarAverage(1, 3) // depths 1 and 2 -> mean 1.5
	if err != nil {
		t.Fatal(err)
	}
	if p.At(0, 0) != 1.5 {
		t.Errorf("average = %v, want 1.5", p.At(0, 0))
	}
	if _, err := v.PlanarAverage(3, 3); err == nil {
		t.Errorf("expected empty band error")
	}
	if _, err := v.PlanarAverage(0, 9); err == nil {
		t.Errorf("expected out-of-range error")
	}
}

// Property: FromStack stores slice k as the plane z = k.
func TestStackRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := int(seed%4) + 2
		if n < 2 {
			n = 2
		}
		var slices []*img.Gray
		for k := 0; k < n; k++ {
			g := img.New(5, 4)
			for i := range g.Pix {
				g.Pix[i] = float64(k*100 + i)
			}
			slices = append(slices, g)
		}
		v, err := FromStack(slices)
		if err != nil {
			return false
		}
		for k := 0; k < n; k++ {
			for y := 0; y < 4; y++ {
				for x := 0; x < 5; x++ {
					if v.At(x, y, k) != slices[k].At(x, y) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: the one-voxel planar band at depth y of FromStack equals
// reading row y of each slice.
func TestPlanarConsistencyProperty(t *testing.T) {
	f := func(seed uint8) bool {
		slices := []*img.Gray{img.New(6, 5), img.New(6, 5), img.New(6, 5)}
		for k, s := range slices {
			for i := range s.Pix {
				s.Pix[i] = float64((int(seed)+k*31+i*7)%97) / 97
			}
		}
		v, err := FromStack(slices)
		if err != nil {
			return false
		}
		y := int(seed) % 5
		p, err := v.PlanarAverage(y, y+1)
		if err != nil {
			return false
		}
		for z := 0; z < 3; z++ {
			for x := 0; x < 6; x++ {
				if p.At(x, z) != slices[z].At(x, y) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

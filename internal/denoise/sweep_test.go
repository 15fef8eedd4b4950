package denoise

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

// sweepInputs is one sweepRow call's operands: the rows it reads and the
// rows it writes (out, pxa, pyu), and its scalars.
type sweepInputs struct {
	out, f, pxr, pyc, ua, pxa, pyu []float64
	invLambda, tl, change          float64
}

func (in sweepInputs) clone() sweepInputs {
	c := in
	for _, p := range []*[]float64{&c.out, &c.f, &c.pxr, &c.pyc, &c.ua, &c.pxa, &c.pyu} {
		*p = append([]float64(nil), *p...)
	}
	return c
}

func (in sweepInputs) run(track, vec bool) float64 {
	return sweepRow(in.out, in.f, in.pxr, in.pyc, in.ua, in.pxa, in.pyu, in.invLambda, in.tl, in.change, track, vec)
}

// projects reports whether the Go loop's dual step at interior column x
// reprojects (s2 >= 1 or NaN), evaluated on the inputs before the call.
func (in sweepInputs) projects(x int) bool {
	nu := in.f[x] + ((0+(in.pxr[x]-in.pxr[x-1]))+(in.pyc[x]-in.pyu[x]))*in.invLambda
	v := in.ua[x]
	a := in.pxa[x] + in.tl*(in.ua[x+1]-v)
	b := in.pyu[x] + in.tl*(nu-v)
	return !(a*a+b*b < 1)
}

// special draws from the values where a reordered or fused evaluation
// would show: signed zeros, subnormals and ordinary magnitudes.
func special(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 5e-324 * float64(1+rng.Intn(1000))
	case 3:
		return -2.2e-310 * rng.Float64()
	default:
		return rng.NormFloat64()
	}
}

// sweepCase builds a row of width w. regime sets the share of interior
// dual steps that reproject: "none" keeps |p| small, "some" pushes about
// 7% of the columns' pxa past 1 (the 12 us production rate), "all" puts
// every |p| near 2; "special" fills every operand from special, "zeros"
// from +0 and -0 alone (where the Go loop's 0+ shows), "unit"
// makes a*a+b*b exactly 1 on a third of the columns (tl = 0), and "nan"
// puts NaN into a few pxa entries.
func sweepCase(rng *rand.Rand, w int, regime string) sweepInputs {
	row := func(gen func() float64) []float64 {
		r := make([]float64, w)
		for i := range r {
			r[i] = gen()
		}
		return r
	}
	small := func() float64 { return 0.3 * (2*rng.Float64() - 1) }
	pix := func() float64 { return rng.Float64() }
	in := sweepInputs{
		out: row(pix), f: row(pix), ua: row(pix),
		pxr: row(small), pyc: row(small), pxa: row(small), pyu: row(small),
		invLambda: 1.0 / 25, tl: 0.125 * 25 / 100, change: 0.123,
	}
	switch regime {
	case "some":
		for x := range in.pxa {
			if rng.Float64() < 0.07 {
				in.pxa[x] = math.Copysign(1.5, small())
			}
		}
	case "all":
		big := func() float64 { return math.Copysign(1.5+rng.Float64(), small()) }
		in.pxa, in.pyu = row(big), row(big)
	case "special":
		g := func() float64 { return special(rng) }
		in.out, in.f, in.ua = row(g), row(g), row(g)
		in.pxr, in.pyc, in.pxa, in.pyu = row(g), row(g), row(g), row(g)
	case "zeros":
		g := func() float64 { return math.Copysign(0, float64(rng.Intn(2))-0.5) }
		in.out, in.f, in.ua = row(g), row(g), row(g)
		in.pxr, in.pyc, in.pxa, in.pyu = row(g), row(g), row(g), row(g)
	case "unit":
		in.tl = 0
		for x := range in.pxa {
			switch rng.Intn(3) {
			case 0:
				in.pxa[x], in.pyu[x] = 1, 0
			case 1:
				in.pxa[x], in.pyu[x] = 0.6, -0.8
			}
		}
	case "nan":
		for x := range in.pxa {
			if rng.Intn(5) == 0 {
				in.pxa[x] = math.NaN()
			}
		}
	}
	return in
}

// sameBits reports bit equality; with nanOK, any two NaNs also match
// (the payload of a NaN is not part of the contract).
func sameBits(a, b float64, nanOK bool) bool {
	return math.Float64bits(a) == math.Float64bits(b) || nanOK && a != a && b != b
}

// TestSweepVecMatchesGo runs sweepRow with the AVX2 interior and with the
// Go loop on identical rows and demands the same bits in every value
// written and in the returned change: widths 1 to 67 cover every
// (w-2) mod 4 remainder and the rows too narrow for one vector step,
// each tracked and untracked, at every projection rate.
func TestSweepVecMatchesGo(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 sweep on this CPU or platform")
	}
	rng := rand.New(rand.NewSource(29))
	for _, regime := range []string{"none", "some", "all", "special", "zeros", "unit", "nan"} {
		var lanes, proj int
		for w := 1; w <= 67; w++ {
			for _, track := range []bool{false, true} {
				in := sweepCase(rng, w, regime)
				for x := 1; x < w-1; x++ {
					lanes++
					if in.projects(x) {
						proj++
					}
				}
				goRow, vecRow := in.clone(), in.clone()
				wantC := goRow.run(track, false)
				gotC := vecRow.run(track, true)
				nanOK := regime == "nan"
				if !sameBits(gotC, wantC, nanOK) {
					t.Fatalf("%s w=%d track=%v: change %v (%#x), Go loop %v (%#x)", regime, w, track,
						gotC, math.Float64bits(gotC), wantC, math.Float64bits(wantC))
				}
				for name, pair := range map[string][2][]float64{
					"out": {vecRow.out, goRow.out}, "pxa": {vecRow.pxa, goRow.pxa}, "pyu": {vecRow.pyu, goRow.pyu},
				} {
					for x := range pair[0] {
						if !sameBits(pair[0][x], pair[1][x], nanOK) {
							t.Fatalf("%s w=%d track=%v: %s[%d] = %v (%#x), Go loop %v (%#x)", regime, w, track, name, x,
								pair[0][x], math.Float64bits(pair[0][x]), pair[1][x], math.Float64bits(pair[1][x]))
						}
					}
				}
			}
		}
		// The regimes must reach the projection rates they are named for.
		rate := float64(proj) / float64(lanes)
		if bad := (regime == "none" && proj != 0) || (regime == "some" && (rate < 0.03 || rate > 0.15)) ||
			(regime == "all" && proj != lanes); bad {
			t.Errorf("%s: %d of %d interior dual steps project (%.1f%%)", regime, proj, lanes, 100*rate)
		}
	}
}

// TestAVX2SweepChosen fails when the start-up check misses an AVX2 CPU:
// the Go loop would give the same bits, so nothing else would notice the
// lost speed.
func TestAVX2SweepChosen(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("checks the dispatch against /proc/cpuinfo on linux/amd64")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("reading cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		for _, f := range strings.Fields(flags) {
			if f == "avx2" {
				if !haveAVX2 {
					t.Fatal("the CPU lists avx2 but the sweep runs the Go loop")
				}
				return
			}
		}
		t.Skip("the CPU does not list avx2")
	}
	t.Skip("no flags line in cpuinfo")
}

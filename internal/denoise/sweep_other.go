//go:build !amd64

package denoise

// haveAVX2 is false off amd64: sweepRow's Go loop is the only path.
const haveAVX2 = false

// sweepVec is never called off amd64 (haveAVX2 is false); it exists so
// sweepRow compiles on every platform.
func sweepVec(out, f, pxr, pyc, ua, pxa, pyu []float64, n int, invLambda, tl, change float64, track bool) float64 {
	panic("denoise: no vector sweep on this platform")
}

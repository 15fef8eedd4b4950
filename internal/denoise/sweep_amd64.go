package denoise

// haveAVX2 selects sweepRow's vector interior. It is decided once at
// start-up from what the CPU and the operating system report: CPUID leaf
// 7 lists AVX2, and leaf 1's OSXSAVE with XCR0 shows that the OS saves
// the YMM registers across context switches.
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2 // XCR0: SSE and AVX state enabled
	if xcr0, _ := xgetbv(); xcr0&xmmYmm != xmmYmm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// sweepVec runs sweepRow's interior columns [1, 1+4n) four at a time
// with AVX2 and returns change plus, when track is set, their terms in
// ascending column order. Each lane evaluates the Go loop's expression
// tree with the same IEEE operations (no fused multiply-add), so every
// value it writes, and change, is bit-identical to the Go loop's; see
// sweep_amd64.s. The caller guarantees 4n <= len(out)-2 and that every
// row is len(out) long.
func sweepVec(out, f, pxr, pyc, ua, pxa, pyu []float64, n int, invLambda, tl, change float64, track bool) float64 {
	return sweepAVX2(&out[0], &f[0], &pxr[0], &pyc[0], &ua[0], &pxa[0], &pyu[0], n, invLambda, tl, change, track)
}

//go:noescape
func sweepAVX2(out, f, pxr, pyc, ua, pxa, pyu *float64, n int, invLambda, tl, change float64, track bool) float64

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

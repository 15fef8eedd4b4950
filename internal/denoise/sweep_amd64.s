#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func sweepAVX2(out, f, pxr, pyc, ua, pxa, pyu *float64, n int, invLambda, tl, change float64, track bool) float64
//
// Columns x = 1 .. 4n of sweepRow's interior loop, four per step. Per
// lane, in the Go loop's order:
//
//	nu := f[x] + ((0+(pxr[x]-pxr[x-1]))+(pyc[x]-pyu[x]))*invLambda
//	change += |nu - out[x]|    (tracked rows only)
//	out[x] = nu
//	a := pxa[x] + tl*(ua[x+1]-ua[x])
//	b := pyu[x] + tl*(nu-ua[x])
//	if !(a*a+b*b < 1) { r := sqrt(a*a+b*b); a, b = a/r, b/r }
//	pxa[x], pyu[x] = a, b
//
// pyu is loaded once, before the dual step overwrites it. The change
// terms are added one lane at a time in ascending x with scalar adds, so
// the sum rounds exactly as the Go loop's. The square root and the two
// divisions run only when some lane has !(s2 < 1) (the unordered
// not-less-than predicate, true for a NaN), and VBLENDVPD keeps the
// undivided value in every other lane.
//
// Registers: DI out, SI f, R8 pxr, R9 pyc, R10 ua, R11 pxa, R12 pyu,
// AX byte offset of column x, CX blocks left, BX track; Y15 +0, Y14
// invLambda, Y13 tl, Y12 1.0, Y11 the sign-clearing mask, X10 change.
TEXT ·sweepAVX2(SB), NOSPLIT, $0-104
	MOVQ out+0(FP), DI
	MOVQ f+8(FP), SI
	MOVQ pxr+16(FP), R8
	MOVQ pyc+24(FP), R9
	MOVQ ua+32(FP), R10
	MOVQ pxa+40(FP), R11
	MOVQ pyu+48(FP), R12
	MOVQ n+56(FP), CX
	MOVBLZX track+88(FP), BX
	VXORPD Y15, Y15, Y15
	VBROADCASTSD invLambda+64(FP), Y14
	VBROADCASTSD tl+72(FP), Y13
	MOVQ $0x3FF0000000000000, DX
	VMOVQ DX, X12
	VBROADCASTSD X12, Y12
	MOVQ $0x7FFFFFFFFFFFFFFF, DX
	VMOVQ DX, X11
	VBROADCASTSD X11, Y11
	VMOVSD change+80(FP), X10
	MOVQ $8, AX
	TESTQ CX, CX
	JLE done

loop:
	// Primal: Y0 = nu, Y2 = pyu[x] as the primal reads it.
	VMOVUPD (R8)(AX*1), Y0
	VSUBPD -8(R8)(AX*1), Y0, Y0
	VADDPD Y0, Y15, Y0
	VMOVUPD (R9)(AX*1), Y1
	VMOVUPD (R12)(AX*1), Y2
	VSUBPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	VMULPD Y14, Y0, Y0
	VMOVUPD (SI)(AX*1), Y1
	VADDPD Y0, Y1, Y0
	TESTQ BX, BX
	JZ store

	// change += |nu - out[x]|, lane by lane.
	VMOVUPD (DI)(AX*1), Y1
	VSUBPD Y1, Y0, Y1
	VANDPD Y11, Y1, Y1
	VADDSD X1, X10, X10
	VUNPCKHPD X1, X1, X3
	VADDSD X3, X10, X10
	VEXTRACTF128 $1, Y1, X1
	VADDSD X1, X10, X10
	VUNPCKHPD X1, X1, X3
	VADDSD X3, X10, X10

store:
	VMOVUPD Y0, (DI)(AX*1)

	// Dual step of the row above: Y4 = a, Y5 = b.
	VMOVUPD (R10)(AX*1), Y1
	VMOVUPD 8(R10)(AX*1), Y3
	VSUBPD Y1, Y3, Y3
	VMULPD Y3, Y13, Y3
	VMOVUPD (R11)(AX*1), Y4
	VADDPD Y3, Y4, Y4
	VSUBPD Y1, Y0, Y5
	VMULPD Y5, Y13, Y5
	VADDPD Y5, Y2, Y5

	// Reproject the lanes with !(s2 < 1).
	VMULPD Y4, Y4, Y6
	VMULPD Y5, Y5, Y7
	VADDPD Y7, Y6, Y6
	VCMPPD $5, Y12, Y6, Y7
	VMOVMSKPD Y7, DX
	TESTL DX, DX
	JZ write
	VSQRTPD Y6, Y6
	VDIVPD Y6, Y4, Y8
	VDIVPD Y6, Y5, Y9
	VBLENDVPD Y7, Y8, Y4, Y4
	VBLENDVPD Y7, Y9, Y5, Y5

write:
	VMOVUPD Y4, (R11)(AX*1)
	VMOVUPD Y5, (R12)(AX*1)
	ADDQ $32, AX
	DECQ CX
	JNZ loop

done:
	VZEROUPPER
	VMOVSD X10, ret+96(FP)
	RET

//go:build amd64 && gc && !purego

#include "textflag.h"

// func hasAVX() bool
//
// CPUID leaf 1: ECX bit 27 (OSXSAVE) and bit 28 (AVX) must both be set,
// then XGETBV(XCR0) bits 1..2 confirm the OS saves SSE+AVX state.
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVQ $1, AX
	XORQ CX, CX
	CPUID
	MOVL CX, BX
	SHRL $27, BX
	ANDL $3, BX
	CMPL BX, $3
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func dotRowsAVX(dst, rows, q []float32)
//
// dst[r] = <rows[r*dim:(r+1)*dim], q> for r in [0, len(dst)), dim = len(q).
// Implements the 16-lane schedule exactly as dotSched16 (dotrows.go):
//
//   Y0 lane j accumulates elements i ≡ j   (mod 16), j = 0..7
//   Y1 lane j accumulates elements i ≡ 8+j (mod 16)
//   t[j] = ((s[j]+s[4+j])+s[8+j])+s[12+j]  — the VEXTRACTF128/VADDPS chain
//   sum  = ((t0+t1)+t2)+t3                  — sequential scalar adds
//   tail — sequential scalar mul-then-add (no FMA anywhere)
//
// The main loop is unrolled to 32 elements; the two extra vector MACs feed
// the same accumulators in ascending element order, so the per-lane add
// sequence (and therefore every rounding step) is unchanged.
TEXT ·dotRowsAVX(SB), NOSPLIT, $16-72
	MOVQ dst_base+0(FP), R8
	MOVQ dst_len+8(FP), R9
	MOVQ rows_base+24(FP), SI
	MOVQ q_base+48(FP), DI
	MOVQ q_len+56(FP), CX

	MOVQ CX, R12
	ANDQ $~15, R12        // dim &^ 15: end of the 16-wide body
	MOVQ CX, R13
	ANDQ $~31, R13        // dim &^ 31: end of the 32-wide unrolled body

	XORQ R10, R10         // row index

rowloop:
	CMPQ R10, R9
	JGE  alldone

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	XORQ  AX, AX

loop32:
	CMPQ AX, R13
	JGE  loop16
	VMOVUPS (SI)(AX*4), Y2
	VMULPS  (DI)(AX*4), Y2, Y2
	VADDPS  Y2, Y0, Y0
	VMOVUPS 32(SI)(AX*4), Y3
	VMULPS  32(DI)(AX*4), Y3, Y3
	VADDPS  Y3, Y1, Y1
	VMOVUPS 64(SI)(AX*4), Y2
	VMULPS  64(DI)(AX*4), Y2, Y2
	VADDPS  Y2, Y0, Y0
	VMOVUPS 96(SI)(AX*4), Y3
	VMULPS  96(DI)(AX*4), Y3, Y3
	VADDPS  Y3, Y1, Y1
	ADDQ   $32, AX
	JMP  loop32

loop16:
	CMPQ AX, R12
	JGE  reduce
	VMOVUPS (SI)(AX*4), Y2
	VMULPS  (DI)(AX*4), Y2, Y2
	VADDPS  Y2, Y0, Y0
	VMOVUPS 32(SI)(AX*4), Y3
	VMULPS  32(DI)(AX*4), Y3, Y3
	VADDPS  Y3, Y1, Y1
	ADDQ   $16, AX
	JMP  loop16

reduce:
	// t[j] = ((s[j] + s[4+j]) + s[8+j]) + s[12+j], lane-wise in X4.
	VEXTRACTF128 $1, Y0, X5
	VADDPS       X5, X0, X4
	VADDPS       X1, X4, X4
	VEXTRACTF128 $1, Y1, X6
	VADDPS       X6, X4, X4
	VMOVUPS      X4, 0(SP)
	VMOVSS       0(SP), X7
	VADDSS       4(SP), X7, X7
	VADDSS       8(SP), X7, X7
	VADDSS       12(SP), X7, X7

tail:
	CMPQ AX, CX
	JGE  rowdone
	VMOVSS (SI)(AX*4), X2
	VMULSS (DI)(AX*4), X2, X2
	VADDSS X2, X7, X7
	INCQ  AX
	JMP  tail

rowdone:
	VMOVSS X7, (R8)(R10*4)
	LEAQ  (SI)(CX*4), SI
	INCQ  R10
	JMP  rowloop

alldone:
	VZEROUPPER
	RET

// prefetchDist is how many ids ahead dotRowsAtAVX prefetches. Chosen on
// BenchmarkDotRowsAtCold50k (800 sorted ids over 50k × 64 rows, caches
// evicted between iterations) among 4, 8 and 16.
#define prefetchDist 8

// func dotRowsAtAVX(dst, mat []float32, ids []int32, q []float32)
//
// dst[i] = <mat[ids[i]*dim:(ids[i]+1)*dim], q> for i in [0, len(ids)),
// dim = len(q). Per id the row's body is dotRowsAVX's, so each score is
// bit-identical to DotRowsRef of that row. Before the body, while an id
// prefetchDist further on exists, every 64-byte line of that row gets a
// PREFETCHT0 (the last element's line too, for a row that does not start
// on a line), so the misses of the coming rows are in flight while this
// one is scored. The ids are in range: DotRowsAt checked them.
TEXT ·dotRowsAtAVX(SB), NOSPLIT, $16-96
	MOVQ dst_base+0(FP), R8
	MOVQ mat_base+24(FP), BX
	MOVQ ids_base+48(FP), R11
	MOVQ ids_len+56(FP), R9
	MOVQ q_base+72(FP), DI
	MOVQ q_len+80(FP), CX

	MOVQ CX, R12
	ANDQ $~15, R12        // dim &^ 15: end of the 16-wide body
	MOVQ CX, R13
	ANDQ $~31, R13        // dim &^ 31: end of the 32-wide unrolled body

	XORQ R10, R10         // index into ids

rowloop:
	CMPQ R10, R9
	JGE  alldone

	LEAQ prefetchDist(R10), DX
	CMPQ DX, R9
	JGE  scoreRow
	MOVLQSX (R11)(DX*4), DX
	IMULQ   CX, DX
	LEAQ    (BX)(DX*4), DX // the row prefetchDist ids ahead
	XORQ    AX, AX

prefetch:
	PREFETCHT0 (DX)(AX*4)
	ADDQ       $16, AX
	CMPQ       AX, CX
	JLT        prefetch
	PREFETCHT0 -4(DX)(CX*4)

scoreRow:
	MOVLQSX (R11)(R10*4), SI
	IMULQ   CX, SI
	LEAQ    (BX)(SI*4), SI // this id's row

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	XORQ  AX, AX

loop32:
	CMPQ AX, R13
	JGE  loop16
	VMOVUPS (SI)(AX*4), Y2
	VMULPS  (DI)(AX*4), Y2, Y2
	VADDPS  Y2, Y0, Y0
	VMOVUPS 32(SI)(AX*4), Y3
	VMULPS  32(DI)(AX*4), Y3, Y3
	VADDPS  Y3, Y1, Y1
	VMOVUPS 64(SI)(AX*4), Y2
	VMULPS  64(DI)(AX*4), Y2, Y2
	VADDPS  Y2, Y0, Y0
	VMOVUPS 96(SI)(AX*4), Y3
	VMULPS  96(DI)(AX*4), Y3, Y3
	VADDPS  Y3, Y1, Y1
	ADDQ   $32, AX
	JMP  loop32

loop16:
	CMPQ AX, R12
	JGE  reduce
	VMOVUPS (SI)(AX*4), Y2
	VMULPS  (DI)(AX*4), Y2, Y2
	VADDPS  Y2, Y0, Y0
	VMOVUPS 32(SI)(AX*4), Y3
	VMULPS  32(DI)(AX*4), Y3, Y3
	VADDPS  Y3, Y1, Y1
	ADDQ   $16, AX
	JMP  loop16

reduce:
	VEXTRACTF128 $1, Y0, X5
	VADDPS       X5, X0, X4
	VADDPS       X1, X4, X4
	VEXTRACTF128 $1, Y1, X6
	VADDPS       X6, X4, X4
	VMOVUPS      X4, 0(SP)
	VMOVSS       0(SP), X7
	VADDSS       4(SP), X7, X7
	VADDSS       8(SP), X7, X7
	VADDSS       12(SP), X7, X7

tail:
	CMPQ AX, CX
	JGE  rowdone
	VMOVSS (SI)(AX*4), X2
	VMULSS (DI)(AX*4), X2, X2
	VADDSS X2, X7, X7
	INCQ  AX
	JMP  tail

rowdone:
	VMOVSS X7, (R8)(R10*4)
	INCQ  R10
	JMP  rowloop

alldone:
	VZEROUPPER
	RET

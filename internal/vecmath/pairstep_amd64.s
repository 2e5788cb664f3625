//go:build amd64 && gc && !purego

#include "textflag.h"

// func pairAxpyAVX(alpha float32, v, c, grad []float32)
//
// One fused pass over i in [0, len(v)):
//
//   grad[i] = grad[i] + round(alpha·c[i])      — c as it was on entry
//   c[i]    = c[i]    + round(alpha·v[i])
//
// Every element is a separate multiply and add (VMULPS/VADDPS, never FMA),
// so vector width and unrolling cannot change a rounding: the result is
// bit-identical to pairAxpyRef (pairstep.go). c is loaded once and feeds
// both updates; v is read-only.
TEXT ·pairAxpyAVX(SB), NOSPLIT, $0-80
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ v_base+8(FP), SI
	MOVQ v_len+16(FP), CX
	MOVQ c_base+32(FP), DI
	MOVQ grad_base+56(FP), DX

	MOVQ CX, R12
	ANDQ $~15, R12        // len &^ 15: end of the 16-wide body
	MOVQ CX, R13
	ANDQ $~7, R13         // len &^ 7: end of the 8-wide body
	XORQ AX, AX

loop16:
	CMPQ AX, R12
	JGE  loop8
	VMOVUPS (DI)(AX*4), Y1
	VMOVUPS 32(DI)(AX*4), Y2
	VMULPS  Y1, Y0, Y3
	VMULPS  Y2, Y0, Y4
	VADDPS  (DX)(AX*4), Y3, Y3
	VADDPS  32(DX)(AX*4), Y4, Y4
	VMOVUPS Y3, (DX)(AX*4)
	VMOVUPS Y4, 32(DX)(AX*4)
	VMULPS  (SI)(AX*4), Y0, Y5
	VMULPS  32(SI)(AX*4), Y0, Y6
	VADDPS  Y5, Y1, Y1
	VADDPS  Y6, Y2, Y2
	VMOVUPS Y1, (DI)(AX*4)
	VMOVUPS Y2, 32(DI)(AX*4)
	ADDQ    $16, AX
	JMP  loop16

loop8:
	CMPQ AX, R13
	JGE  tail
	VMOVUPS (DI)(AX*4), Y1
	VMULPS  Y1, Y0, Y3
	VADDPS  (DX)(AX*4), Y3, Y3
	VMOVUPS Y3, (DX)(AX*4)
	VMULPS  (SI)(AX*4), Y0, Y5
	VADDPS  Y5, Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ    $8, AX
	JMP  loop8

tail:
	CMPQ AX, CX
	JGE  done
	VMOVSS (DI)(AX*4), X1
	VMULSS X1, X0, X3
	VADDSS (DX)(AX*4), X3, X3
	VMOVSS X3, (DX)(AX*4)
	VMULSS (SI)(AX*4), X0, X5
	VADDSS X5, X1, X1
	VMOVSS X1, (DI)(AX*4)
	INCQ   AX
	JMP  tail

done:
	VZEROUPPER
	RET

// func Prefetch(row []float32)
//
// PREFETCHT0 on every 64-byte line row touches: one per 64 bytes from the
// first element, and one on the last byte for a row that does not start on
// a line boundary. A hint only: no fault, no architectural effect.
TEXT ·Prefetch(SB), NOSPLIT, $0-24
	MOVQ row_base+0(FP), SI
	MOVQ row_len+8(FP), CX
	LEAQ (SI)(CX*4), CX   // one past the last byte
	CMPQ SI, CX
	JGE  pfdone
pfloop:
	PREFETCHT0 (SI)
	ADDQ $64, SI
	CMPQ SI, CX
	JLT  pfloop
	PREFETCHT0 -1(CX)
pfdone:
	RET

//go:build amd64 && gc && !purego

#include "textflag.h"

// func hasAVX2() bool
//
// CPUID leaf 7, subleaf 0: EBX bit 5 is AVX2 (after checking that leaf 7
// exists).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func dotRowsI8AVX2(dst []int32, codes []int8, q []int16)
//
// dst[r] = sum over i < dim&^15 of codes[r*dim+i] * q[i], dim = len(q).
// Rows go four at a time so one load of 16 query values serves four rows;
// each row keeps eight int32 partial sums in one YMM register, folded by
// VPHADDD at the end of the row. Integer adds: any order gives the same
// sum.
TEXT ·dotRowsI8AVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), R8
	MOVQ dst_len+8(FP), R9
	MOVQ codes_base+24(FP), SI
	MOVQ q_base+48(FP), DI
	MOVQ q_len+56(FP), CX

	MOVQ CX, R12
	ANDQ $~15, R12        // dim &^ 15: end of the 16-wide body
	MOVQ R9, R11
	ANDQ $~3, R11         // rows &^ 3: end of the four-row groups
	XORQ R10, R10         // row index

rows4:
	CMPQ R10, R11
	JGE  rows1
	LEAQ (SI)(CX*1), BX   // rows r+1, r+2, r+3
	LEAQ (BX)(CX*1), DX
	LEAQ (DX)(CX*1), R13
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ AX, AX

body4:
	CMPQ AX, R12
	JGE  fold4
	VMOVDQU   (DI)(AX*2), Y8
	VPMOVSXBW (SI)(AX*1), Y4
	VPMADDWD  Y8, Y4, Y4
	VPADDD    Y4, Y0, Y0
	VPMOVSXBW (BX)(AX*1), Y5
	VPMADDWD  Y8, Y5, Y5
	VPADDD    Y5, Y1, Y1
	VPMOVSXBW (DX)(AX*1), Y6
	VPMADDWD  Y8, Y6, Y6
	VPADDD    Y6, Y2, Y2
	VPMOVSXBW (R13)(AX*1), Y7
	VPMADDWD  Y8, Y7, Y7
	VPADDD    Y7, Y3, Y3
	ADDQ $16, AX
	JMP  body4

fold4:
	// Y0..Y3 hold rows a..d. Two rounds of pairwise adds leave
	// [a b c d | a b c d] (low and high halves of each row's sums).
	VPHADDD Y1, Y0, Y0
	VPHADDD Y3, Y2, Y2
	VPHADDD Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD  X1, X0, X0
	VMOVDQU X0, (R8)(R10*4)
	LEAQ (R13)(CX*1), SI
	ADDQ $4, R10
	JMP  rows4

rows1:
	CMPQ R10, R9
	JGE  done
	VPXOR Y0, Y0, Y0
	XORQ AX, AX

body1:
	CMPQ AX, R12
	JGE  fold1
	VPMOVSXBW (SI)(AX*1), Y4
	VPMADDWD  (DI)(AX*2), Y4, Y4
	VPADDD    Y4, Y0, Y0
	ADDQ $16, AX
	JMP  body1

fold1:
	VEXTRACTI128 $1, Y0, X1
	VPADDD  X1, X0, X0
	VPHADDD X0, X0, X0
	VPHADDD X0, X0, X0
	VMOVD   X0, (R8)(R10*4)
	ADDQ CX, SI
	INCQ R10
	JMP  rows1

done:
	VZEROUPPER
	RET

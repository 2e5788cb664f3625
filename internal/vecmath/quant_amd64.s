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

// func dotRowsI8AVX2(dst []int32, mask []uint64, codes []int8, q []int16, scales []float32, t, b, tau float64)
//
// dst[r] = sum over i < dim of codes[r*dim+i] * q[i], dim = len(q). Rows go
// four at a time so one load of 16 query values serves four rows; each row
// keeps eight int32 partial sums in one YMM register, folded by VPHADDD at
// the end of the row group, and the elements past dim&^15 are added one at
// a time in dst. Integer adds: any order gives the same sum.
//
// With a non-nil mask (zeroed by the caller) the fold also makes the prune
// decision of DotRowsI8Mask: the four dots are widened to float64 and
// up = s·(t·D + b) is formed in ScoreInterval's order — multiply by t, add
// b, multiply by the row's float32 scale widened — then compared with tau
// under NLE_UQ (not less-or-equal, unordered: a NaN up sets its bit). The
// four bits collect in R15, sixteen groups to a word, so that row r lands at
// bit r%64 of mask[r/64]. Rows past the last group of four take the same
// steps in scalar form and OR their bit into mask.
TEXT ·dotRowsI8AVX2(SB), NOSPLIT, $0-144
	MOVQ dst_base+0(FP), R8
	MOVQ dst_len+8(FP), R11
	ANDQ $~3, R11         // rows &^ 3: end of the four-row groups
	XORQ R15, R15         // mask bits of the current word, newest at the top
	MOVQ codes_base+48(FP), SI
	MOVQ q_base+72(FP), DI
	MOVQ q_len+80(FP), CX

	MOVQ CX, R12
	ANDQ $~15, R12        // dim &^ 15: end of the 16-wide body
	VBROADCASTSD t+120(FP), Y12
	VBROADCASTSD b+128(FP), Y13
	VBROADCASTSD tau+136(FP), Y14
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
	CMPQ AX, CX
	JGE  bound4

tail4:
	MOVWLSX (DI)(AX*2), R14
	MOVBLSX (SI)(AX*1), R9
	IMULL   R14, R9
	ADDL    R9, (R8)(R10*4)
	MOVBLSX (BX)(AX*1), R9
	IMULL   R14, R9
	ADDL    R9, 4(R8)(R10*4)
	MOVBLSX (DX)(AX*1), R9
	IMULL   R14, R9
	ADDL    R9, 8(R8)(R10*4)
	MOVBLSX (R13)(AX*1), R9
	IMULL   R14, R9
	ADDL    R9, 12(R8)(R10*4)
	INCQ AX
	CMPQ AX, CX
	JLT  tail4
	VMOVDQU (R8)(R10*4), X0

bound4:
	LEAQ (R13)(CX*1), SI
	CMPQ mask_base+24(FP), $0
	JEQ  next4
	VCVTDQ2PD X0, Y1
	VMULPD    Y12, Y1, Y1
	VADDPD    Y13, Y1, Y1
	MOVQ      scales_base+96(FP), R14
	VCVTPS2PD (R14)(R10*4), Y2
	VMULPD    Y1, Y2, Y1
	VCMPPD    $0x16, Y14, Y1, Y1 // NLE_UQ
	VMOVMSKPD Y1, R14
	SHRQ $4, R15          // the word fills from the top: after 16 groups
	SHLQ $60, R14         // row r sits at bit r%64
	ORQ  R14, R15
	LEAQ 4(R10), AX
	TESTQ $63, AX
	JNZ  next4
	SHRQ $6, AX
	MOVQ mask_base+24(FP), BX
	MOVQ R15, -8(BX)(AX*8) // word r/64 is complete

next4:
	ADDQ $4, R10
	JMP  rows4

rows1:
	// The four-row groups may have left a word unfinished, its rows at the
	// top of R15: shift them into place and store it, for the scalar rows
	// below to OR into.
	MOVQ R10, AX
	ANDQ $63, AX
	JZ   rows1mask
	MOVQ $64, CX
	SUBQ AX, CX
	SHRQ CX, R15
	MOVQ q_len+80(FP), CX
	MOVQ R10, AX
	SHRQ $6, AX
	MOVQ mask_base+24(FP), BX
	TESTQ BX, BX
	JZ   rows1mask
	MOVQ R15, (BX)(AX*8)

rows1mask:
	MOVQ mask_base+24(FP), R15

rows1loop:
	CMPQ R10, dst_len+8(FP)
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
	CMPQ AX, CX
	JGE  bound1

tail1:
	MOVWLSX (DI)(AX*2), R14
	MOVBLSX (SI)(AX*1), R9
	IMULL   R14, R9
	ADDL    R9, (R8)(R10*4)
	INCQ AX
	CMPQ AX, CX
	JLT  tail1

bound1:
	ADDQ  CX, SI
	TESTQ R15, R15
	JZ    next1
	VCVTSI2SDL (R8)(R10*4), X1, X1
	VMULSD     X12, X1, X1
	VADDSD     X13, X1, X1
	MOVQ       scales_base+96(FP), R14
	VCVTSS2SD  (R14)(R10*4), X2, X2
	VMULSD     X1, X2, X1
	VCMPSD     $0x16, X14, X1, X1 // NLE_UQ
	VMOVMSKPD  X1, R14
	ANDQ $1, R14
	MOVQ R10, CX
	SHLQ CX, R14
	SHRQ $6, CX
	ORQ  R14, (R15)(CX*8)
	MOVQ q_len+80(FP), CX

next1:
	INCQ R10
	JMP  rows1loop

done:
	VZEROUPPER
	RET

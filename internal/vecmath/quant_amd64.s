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

// func hasAVX512VNNI() bool
//
// Leaf 7 must exist; leaf 1 ECX bit 27 (OSXSAVE) makes XGETBV legal; leaf 7
// subleaf 0 EBX bit 16 is AVX512F and ECX bit 11 AVX512_VNNI; XCR0 bits 1,
// 2, 5, 6 and 7 (0xe6) confirm the OS saves SSE, AVX, opmask and ZMM state.
TEXT ·hasAVX512VNNI(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   novnni
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL  $27, CX
	JCC  novnni
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX
	JCC  novnni
	BTL  $11, CX
	JCC  novnni
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  novnni
	MOVB $1, ret+0(FP)
	RET
novnni:
	MOVB $0, ret+0(FP)
	RET

// Both kernels below walk the block layout a block of 16 rows at a time:
// R10 is the block's first row, SI its codes (64 bytes per quad, row j's
// four codes at byte 4j, so SI runs on into the next block), R13 the bits
// of the block's rows that exist (0xffff but in a partial last block).
// After the integer scores they make the prune decision of DotRowsI8Mask:
// the dots widened to float64 and up = s·(t·D + b) formed in
// ScoreInterval's order — multiply by t, add b, multiply by the row's
// float32 scale widened — then compared with tau under NLE_UQ (not
// less-or-equal, unordered: a NaN up sets its bit). The block's 16 bits
// land in the 16-bit slot R10/16 of the mask, so row r is bit r%64 of
// mask[r/64].

// func dotRowsI8AVX2(dst []int32, mask []uint64, codes []int8, sums []int32, u []int16, planes []uint8, scales []float32, t, b, tau float64)
//
// Per quad, VPBROADCASTQ spreads u's four values over a YMM (Y8, or Y9
// for the second quad of an iteration), and each group of four rows has
// one accumulator: VPMOVSXBW widens the group's 16 codes, VPMADDWD
// multiplies them with the quad and adds adjacent products, leaving two
// partial sums per row. At the end of the block VPHADDD folds the pairs of
// two groups and VPERMQ puts the rows back in order. Integer adds modulo
// 2^32: any order gives the same sum, and the true one fits in int32. A
// partial last block's dots go through the frame, and only its rows are
// copied out.
TEXT ·dotRowsI8AVX2(SB), NOSPLIT, $64-192
	MOVQ dst_base+0(FP), R8
	MOVQ dst_len+8(FP), R11
	MOVQ mask_base+24(FP), R15
	MOVQ codes_base+48(FP), SI
	MOVQ u_base+96(FP), DI
	MOVQ u_len+104(FP), R12
	SHRQ $2, R12          // quads
	MOVQ scales_base+144(FP), R14
	VBROADCASTSD t+168(FP), Y12
	VBROADCASTSD b+176(FP), Y13
	VBROADCASTSD tau+184(FP), Y14
	XORQ R10, R10
	MOVL $0xffff, R13

avx2block:
	LEAQ 16(R10), AX
	CMPQ AX, R11
	JLE  avx2full
	MOVQ R11, CX          // a partial block: (1 << rows left) - 1
	SUBQ R10, CX
	MOVL $1, R13
	SHLL CX, R13
	DECL R13

avx2full:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	MOVQ  DI, DX
	MOVQ  R12, CX
	SHRQ  $1, CX
	JZ    avx2odd

avx2quad:
	VPBROADCASTQ (DX), Y8
	VPBROADCASTQ 8(DX), Y9
	VPMOVSXBW    (SI), Y4
	VPMOVSXBW    16(SI), Y5
	VPMOVSXBW    32(SI), Y6
	VPMOVSXBW    48(SI), Y7
	VPMADDWD     Y8, Y4, Y4
	VPMADDWD     Y8, Y5, Y5
	VPMADDWD     Y8, Y6, Y6
	VPMADDWD     Y8, Y7, Y7
	VPADDD       Y4, Y0, Y0
	VPADDD       Y5, Y1, Y1
	VPADDD       Y6, Y2, Y2
	VPADDD       Y7, Y3, Y3
	VPMOVSXBW    64(SI), Y4
	VPMOVSXBW    80(SI), Y5
	VPMOVSXBW    96(SI), Y6
	VPMOVSXBW    112(SI), Y7
	VPMADDWD     Y9, Y4, Y4
	VPMADDWD     Y9, Y5, Y5
	VPMADDWD     Y9, Y6, Y6
	VPMADDWD     Y9, Y7, Y7
	VPADDD       Y4, Y0, Y0
	VPADDD       Y5, Y1, Y1
	VPADDD       Y6, Y2, Y2
	VPADDD       Y7, Y3, Y3
	ADDQ $128, SI
	ADDQ $16, DX
	DECQ CX
	JNZ  avx2quad

avx2odd:
	TESTQ $1, R12
	JZ    avx2fold
	VPBROADCASTQ (DX), Y8
	VPMOVSXBW    (SI), Y4
	VPMOVSXBW    16(SI), Y5
	VPMOVSXBW    32(SI), Y6
	VPMOVSXBW    48(SI), Y7
	VPMADDWD     Y8, Y4, Y4
	VPMADDWD     Y8, Y5, Y5
	VPMADDWD     Y8, Y6, Y6
	VPMADDWD     Y8, Y7, Y7
	VPADDD       Y4, Y0, Y0
	VPADDD       Y5, Y1, Y1
	VPADDD       Y6, Y2, Y2
	VPADDD       Y7, Y3, Y3
	ADDQ $64, SI

avx2fold:
	VPHADDD Y1, Y0, Y0    // rows 0 1 4 5 | 2 3 6 7
	VPERMQ  $0xd8, Y0, Y0 // rows 0..7
	VPHADDD Y3, Y2, Y2
	VPERMQ  $0xd8, Y2, Y2 // rows 8..15
	CMPL R13, $0xffff
	JNE  avx2partial
	VMOVDQU Y0, (R8)(R10*4)
	VMOVDQU Y2, 32(R8)(R10*4)

avx2bound:
	VCVTDQ2PD    X0, Y4
	VEXTRACTI128 $1, Y0, X5
	VCVTDQ2PD    X5, Y5
	VCVTDQ2PD    X2, Y6
	VEXTRACTI128 $1, Y2, X7
	VCVTDQ2PD    X7, Y7
	VMULPD    Y12, Y4, Y4
	VMULPD    Y12, Y5, Y5
	VMULPD    Y12, Y6, Y6
	VMULPD    Y12, Y7, Y7
	VADDPD    Y13, Y4, Y4
	VADDPD    Y13, Y5, Y5
	VADDPD    Y13, Y6, Y6
	VADDPD    Y13, Y7, Y7
	VCVTPS2PD (R14)(R10*4), Y8
	VMULPD    Y4, Y8, Y4
	VCVTPS2PD 16(R14)(R10*4), Y8
	VMULPD    Y5, Y8, Y5
	VCVTPS2PD 32(R14)(R10*4), Y8
	VMULPD    Y6, Y8, Y6
	VCVTPS2PD 48(R14)(R10*4), Y8
	VMULPD    Y7, Y8, Y7
	VCMPPD    $0x16, Y14, Y4, Y4 // NLE_UQ
	VCMPPD    $0x16, Y14, Y5, Y5
	VCMPPD    $0x16, Y14, Y6, Y6
	VCMPPD    $0x16, Y14, Y7, Y7
	VMOVMSKPD Y4, AX
	VMOVMSKPD Y5, BX
	SHLL $4, BX
	ORL  BX, AX
	VMOVMSKPD Y6, BX
	SHLL $8, BX
	ORL  BX, AX
	VMOVMSKPD Y7, BX
	SHLL $12, BX
	ORL  BX, AX
	ANDL R13, AX
	MOVQ R10, BX
	SHRQ $3, BX
	MOVW AX, (R15)(BX*1)
	ADDQ $16, R10
	CMPQ R10, R11
	JLT  avx2block
	VZEROUPPER
	RET

avx2partial:
	VMOVDQU Y0, dots-64(SP)
	VMOVDQU Y2, dots-32(SP)
	MOVQ R11, CX
	SUBQ R10, CX
	LEAQ (R8)(R10*4), DX
	XORQ AX, AX

avx2copy:
	MOVL dots-64(SP)(AX*4), BX
	MOVL BX, (DX)(AX*4)
	INCQ AX
	CMPQ AX, CX
	JLT  avx2copy
	JMP  avx2bound

// VNNI_BOUND finishes the block at row R10 from its plane sums L (LY its
// low half) and H:
// D = 256·H + L − 32768·Σc into dst under K7, then the prune bits into
// the mask. Clobbers L, H, Z4..Z8, K1, K2, AX and BX.
#define VNNI_BOUND(L, LY, H) \
	VPSLLD        $8, H, H; \
	VPADDD        H, L, L; \
	VMOVDQU32     (R9)(R10*4), Z4; \
	VPSLLD        $15, Z4, Z4; \
	VPSUBD        Z4, L, L; \
	VMOVDQU32     L, K7, (R8)(R10*4); \
	VEXTRACTI64X4 $1, L, Y6; \
	VCVTDQ2PD     LY, Z5; \
	VCVTDQ2PD     Y6, Z6; \
	VMULPD        Z12, Z5, Z5; \
	VMULPD        Z12, Z6, Z6; \
	VADDPD        Z13, Z5, Z5; \
	VADDPD        Z13, Z6, Z6; \
	VCVTPS2PD     (R14)(R10*4), Z7; \
	VCVTPS2PD     32(R14)(R10*4), Z8; \
	VMULPD        Z5, Z7, Z5; \
	VMULPD        Z6, Z8, Z6; \
	VCMPPD        $0x16, Z14, Z5, K1; \
	VCMPPD        $0x16, Z14, Z6, K2; \
	KMOVW         K1, AX; \
	KMOVW         K2, BX; \
	SHLL          $8, BX; \
	ORL           BX, AX; \
	ANDL          R13, AX; \
	MOVQ          R10, BX; \
	SHRQ          $3, BX; \
	MOVW          AX, (R15)(BX*1); \
	ADDQ          $16, R10

// func dotRowsI8VNNI(dst []int32, mask []uint64, codes []int8, sums []int32, u []int16, planes []uint8, scales []float32, t, b, tau float64)
//
// Per quad, VPBROADCASTD spreads the quad's four low-plane bytes l' over a
// ZMM and its four high-plane bytes h' over another (planes holds 8 bytes a
// quad), and two VPDPBUSD multiply them, unsigned, with a block's 64 signed
// code bytes: lane j of one accumulator gains row j's four products with
// l', lane j of the other those with h'. At the end of the block
// D = 256·H + L − 32768·Σc, every step modulo 2^32: since
// u' = u + 32768 = 256·h' + l', this is Σ c·u, and the true sum fits in
// int32. Two full blocks go per iteration, sharing the broadcasts, with
// even and odd quads in separate accumulators so that eight VPDPBUSD
// chains are in flight; a last single block (full or partial) goes on its
// own. A partial last block stores its dots under the K7 mask of its rows.
TEXT ·dotRowsI8VNNI(SB), NOSPLIT, $0-192
	MOVQ dst_base+0(FP), R8
	MOVQ dst_len+8(FP), R11
	MOVQ mask_base+24(FP), R15
	MOVQ codes_base+48(FP), SI
	MOVQ sums_base+72(FP), R9
	MOVQ planes_base+120(FP), DI
	MOVQ u_len+104(FP), R12
	SHRQ $2, R12          // quads
	MOVQ R12, BX
	SHLQ $6, BX
	MOVQ BX, DX           // bytes per block
	MOVQ scales_base+144(FP), R14
	VBROADCASTSD t+168(FP), Z12
	VBROADCASTSD b+176(FP), Z13
	VBROADCASTSD tau+184(FP), Z14
	XORQ R10, R10
	MOVL $0xffff, R13
	KMOVW R13, K7

vnnipair:
	LEAQ 32(R10), AX
	CMPQ AX, R11
	JGT  vnnione
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z16, Z16, Z16
	VPXORD Z17, Z17, Z17
	VPXORD Z18, Z18, Z18
	VPXORD Z19, Z19, Z19
	MOVQ   DI, AX
	MOVQ   R12, CX
	SHRQ   $1, CX
	JZ     vnnipairodd

vnnipairquad:
	VPBROADCASTD (AX), Z20
	VPBROADCASTD 4(AX), Z21
	VPBROADCASTD 8(AX), Z22
	VPBROADCASTD 12(AX), Z23
	VMOVDQU64    (SI), Z24
	VMOVDQU64    (SI)(DX*1), Z25
	VMOVDQU64    64(SI), Z26
	VMOVDQU64    64(SI)(DX*1), Z27
	VPDPBUSD     Z24, Z20, Z0
	VPDPBUSD     Z24, Z21, Z1
	VPDPBUSD     Z25, Z20, Z2
	VPDPBUSD     Z25, Z21, Z3
	VPDPBUSD     Z26, Z22, Z16
	VPDPBUSD     Z26, Z23, Z17
	VPDPBUSD     Z27, Z22, Z18
	VPDPBUSD     Z27, Z23, Z19
	ADDQ $128, SI
	ADDQ $16, AX
	DECQ CX
	JNZ  vnnipairquad

vnnipairodd:
	TESTQ $1, R12
	JZ    vnnipairfold
	VPBROADCASTD (AX), Z20
	VPBROADCASTD 4(AX), Z21
	VPDPBUSD     (SI), Z20, Z0
	VPDPBUSD     (SI), Z21, Z1
	VPDPBUSD     (SI)(DX*1), Z20, Z2
	VPDPBUSD     (SI)(DX*1), Z21, Z3
	ADDQ $64, SI

vnnipairfold:
	ADDQ   DX, SI         // past the second block
	VPADDD Z16, Z0, Z0
	VPADDD Z17, Z1, Z1
	VPADDD Z18, Z2, Z2
	VPADDD Z19, Z3, Z3
	VNNI_BOUND(Z0, Y0, Z1)
	VNNI_BOUND(Z2, Y2, Z3)
	JMP vnnipair

vnnione:
	CMPQ R10, R11
	JGE  vnnidone
	LEAQ 16(R10), AX
	CMPQ AX, R11
	JLE  vnnionefull
	MOVQ R11, CX          // a partial block: (1 << rows left) - 1
	SUBQ R10, CX
	MOVL $1, R13
	SHLL CX, R13
	DECL R13
	KMOVW R13, K7

vnnionefull:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	MOVQ   DI, AX
	MOVQ   R12, CX
	TESTQ  CX, CX
	JZ     vnnionefold

vnnionequad:
	VPBROADCASTD (AX), Z20
	VPBROADCASTD 4(AX), Z21
	VPDPBUSD     (SI), Z20, Z0
	VPDPBUSD     (SI), Z21, Z1
	ADDQ $64, SI
	ADDQ $8, AX
	DECQ CX
	JNZ  vnnionequad

vnnionefold:
	VNNI_BOUND(Z0, Y0, Z1)
	JMP vnnione

vnnidone:
	VZEROUPPER
	RET

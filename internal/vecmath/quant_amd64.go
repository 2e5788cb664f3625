//go:build amd64 && gc && !purego

package vecmath

func init() {
	i8Kernels = []i8Kernel{
		{"vnni", dotRowsI8VNNI, hasAVX512VNNI()},
		{"avx2", dotRowsI8AVX2, useAVX && hasAVX2()},
	}
	for _, k := range i8Kernels {
		if k.ok {
			dotRowsI8Asm = k.fn
			break
		}
	}
}

// hasAVX2 reports the CPU's AVX2 flag (CPUID leaf 7, EBX bit 5). OS support
// for YMM state is hasAVX's half of the check. Implemented in
// quant_amd64.s.
func hasAVX2() bool

// hasAVX512VNNI reports CPU and OS support for AVX-512 F and VNNI: CPUID
// leaf 1 ECX bit 27 (OSXSAVE), leaf 7 EBX bit 16 (AVX512F) and ECX bit 11
// (AVX512_VNNI), then XCR0 bits 1, 2, 5, 6 and 7 (SSE, AVX, opmask and both
// halves of the ZMM state). Implemented in quant_amd64.s.
func hasAVX512VNNI() bool

// dotRowsI8AVX2 is DotRowsI8Mask on AVX2, a block of 16 rows at a time:
// per quad, VPBROADCASTQ spreads the query's four int16 values over a YMM,
// and for each group of four rows VPMOVSXBW widens their 16 codes,
// VPMADDWD multiplies and adds adjacent products, VPADDD accumulates — two
// partial sums per row, folded once per block by VPHADDD. Requires the
// shapes DotRowsI8Mask checks, len(dst) > 0 and a zeroed mask (enforced
// by the wrapper). Implemented in quant_amd64.s.
//
//go:noescape
func dotRowsI8AVX2(dst []int32, mask []uint64, codes []int8, sums []int32, u []int16, planes []uint8, scales []float32, t, b, tau float64)

// dotRowsI8VNNI is DotRowsI8Mask on AVX-512 VNNI, a block of 16 rows at a
// time: per quad, two VPDPBUSD multiply the 64 code bytes with the
// broadcast low and high query planes, each scoring four dims of all 16
// rows into one lane per row, so no row needs a horizontal sum; at the end
// of the block D = 256·H + L − 32768·Σc. Same requirements as
// dotRowsI8AVX2. Implemented in quant_amd64.s.
//
//go:noescape
func dotRowsI8VNNI(dst []int32, mask []uint64, codes []int8, sums []int32, u []int16, planes []uint8, scales []float32, t, b, tau float64)

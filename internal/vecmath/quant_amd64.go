//go:build amd64 && gc && !purego

package vecmath

func init() {
	if useAVX && hasAVX2() {
		dotRowsI8Asm = dotRowsI8AVX2
	}
}

// hasAVX2 reports the CPU's AVX2 flag (CPUID leaf 7, EBX bit 5). OS support
// for YMM state is hasAVX's half of the check. Implemented in
// quant_amd64.s.
func hasAVX2() bool

// dotRowsI8AVX2 computes, for every row r, the integer dot product of
// codes[r*dim:(r+1)*dim] and q, four rows per iteration: VPMOVSXBW widens 16
// codes, VPMADDWD multiplies them with 16 query values and adds adjacent
// products, VPADDD accumulates; elements past len(q)&^15 are added one at a
// time. With a non-nil mask it also sets DotRowsI8Mask's bits, formed from
// the folded dots of each group of four rows. Requires the shapes
// DotRowsI8Mask checks, len(dst) > 0 and a zeroed mask (enforced by the
// wrappers). Implemented in quant_amd64.s.
//
//go:noescape
func dotRowsI8AVX2(dst []int32, mask []uint64, codes []int8, q []int16, scales []float32, t, b, tau float64)

// Package vecmath provides the float32 vector kernels of the repository:
// the SGNS pair update every trainer runs (PairStep), the batch dot
// product every retrieval scan runs (DotRows), int8 quantization and the
// int8 scan in front of it (DotRowsI8Mask), and the small helpers around them (dot, axpy, cosine, the precomputed sigmoid
// table word2vec-style trainers rely on).
//
// All embedding math in this repository is float32: at billion scale the
// paper's engine is memory-bound, and float32 halves both footprint and
// memory traffic versus float64 with no measurable loss for SGNS.
//
// The two hot kernels, PairStep and DotRows, each have an AVX
// implementation on amd64 and a pure-Go reference (PairStepRef,
// DotRowsRef) that is bit-identical to it on every input (up to the payload
// of a NaN result, see Gathered rows): one fixed accumulation order, every
// product and sum rounded separately. The
// reference is the specification the assembly is property-tested against
// and what every other platform (and the purego build tag) runs, so models
// and retrieval results do not depend on the machine. The helpers (Dot,
// Axpy, ...) are plain 4-way unrolled Go and promise no particular
// rounding order.
//
// # Gathered rows
//
// DotRowsAt scores scattered rows of a matrix, named by their ids, in one
// call: the exact re-rank's shape, where a few hundred survivors lie
// anywhere in a 50k-row matrix. Each score is DotRows' 16-lane schedule on
// that row, so it is bit-identical to DotRowsRef of the row on every
// non-NaN result and equal to DotRows of the row on every result
// (TestDotRowsAtBitIdentical, which runs every kernel the host has, over
// dims 1–200, 516, 517 and 1000, id lists of 0–300 with repeats, and NaN,
// ±Inf, ±0 and subnormal elements; a NaN may carry another payload than
// the compiled reference gives it, since Go leaves payloads unspecified).
// One DotRows call per row waits on each row's cache and TLB miss in turn;
// the AVX kernel instead issues PREFETCHT0 for every line of the row eight
// ids ahead, so several misses are in flight while a row is scored.
// BenchmarkDotRowsAtCold50k times both on 800 sorted ids whose rows come
// from outside the core's L2. The wrapper checks every id against the
// matrix before the kernel runs, because the kernel has no bounds checks
// (TestDotRowsAtPanicsOnBadShape); platforms without it and the purego tag
// loop dotSched16 over the ids.
//
// # The int8 block layout
//
// The flat scan's int8 mirror (internal/knn) is stored in blocks of
// BlockRows = 16 rows. dim is padded with zero codes to a whole quad of 4,
// and for each quad k a block holds 64 bytes: row j's four codes at byte
// 64k + 4j (PutBlockRow). Rows past the last one of a partial block are
// zero. Beside the codes the mirror keeps each row's scale and its code sum
// Σc as an int32. TestPutBlockRowLayout pins the layout.
//
// DotRowsI8Mask scores such rows against a query quantised to int16
// (QueryI16) and makes the scan's prune decision in the same pass. Every
// implementation equals it on every input: DotRowsI8MaskRef, the pure-Go
// specification that purego, arm64 and CPUs without AVX2 run; the AVX2
// kernel, where per quad VPBROADCASTQ spreads the query's four int16
// values, VPMOVSXBW widens four rows' codes and VPMADDWD multiplies and adds
// adjacent products, leaving two partial sums per row that VPHADDD folds
// once per block; and the AVX-512 VNNI kernel, chosen at init when CPUID
// and XCR0 report AVX512F, AVX512_VNNI and the ZMM state. There a quad's 64
// code bytes are one VPDPBUSD operand, so one instruction scores four dims
// of all 16 rows into one int32 lane per row, and no row needs a
// horizontal sum.
//
// The plane identity. VPDPBUSD multiplies unsigned bytes by signed ones,
// so the query enters as two unsigned byte planes: with u' = u + 32768,
// l' = u' & 255 and h' = u' >> 8, u' = 256·h' + l', and for a row of codes c
//
//	D = Σ c·u = Σ c·(256·h' + l' − 32768) = 256·H + L − 32768·Σc,
//
// where L = Σ c·l' and H = Σ c·h' are what the kernel's two VPDPBUSD
// chains accumulate. TestQueryI16Planes holds u' = 256·h' + l' element by
// element.
//
// Modular exactness. H, L, 256·H and 32768·Σc may leave the int32 range —
// codes ±127 against h' = 255 over a few hundred dims do — and the kernel
// lets them wrap: every step is an int32 add, subtract or shift, so the
// result equals D modulo 2^32. QuantizeQueryI16 keeps 127·|u|·dim below
// 2^31 (queryLimitI16), so the true D fits in int32, and the one int32
// equal to D modulo 2^32 is D. The same argument covers the AVX2 kernel's
// partial sums. TestDotRowsI8MaskMatchesRef checks every kernel the host
// runs against the reference and an int64 sum, with dots within a hair of
// ±2^31 at dims 516, 517 and 1000, where the wraps happen; it logs which
// kernels it checked and which the CPU lacks.
//
// The prune decision. After a block's dots the kernels widen them to
// float64 and form up = s·(t·D + b) in ScoreInterval's order — multiply by
// t, add b, multiply by the row's float32 scale widened — each a separate
// IEEE rounding, then compare with τ under NLE_UQ (not less-or-equal,
// unordered), so a row with a NaN scale is flagged. The block's 16 bits
// are one 16-bit slot of the mask, with the rows past the last of a partial
// block masked off. ScoreInterval writes each product float64(…), the
// spec's fusion barrier, and CI's arm64 step fails if DotRowsI8MaskRef,
// ScoreInterval or knn's prune contains a fused multiply-add.
package vecmath

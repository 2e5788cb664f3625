// The training kernel: one SGNS pair update, shared by every trainer in the
// repository (local Hogwild, the streaming Live trainer, the distributed
// TNS function and EGES). Like the retrieval kernel in dotrows.go it has an
// arch-specific SIMD implementation and a pure-Go reference that is
// bit-identical to it on every input, so W=1 bit-identity, shard
// invariance and replay-exact resume hold on every platform.
package vecmath

// KernelVersion names the arithmetic PairStep performs. It is folded into
// training fingerprints (sgns.Options.Fingerprint), so a checkpoint written
// under different arithmetic is refused instead of resumed into a model no
// single run would have produced. Bump it whenever PairStep's rounding
// sequence changes. (1 was the 4-lane Dot + two Axpy passes.)
const KernelVersion = 2

// PairStep applies one skip-gram update for input vector v against output
// vector c with the given label (1 for the positive pair, 0 for a negative
// sample):
//
//	g = (label − σ(v·c))·lr;  grad += g·c;  c += g·v
//
// The dot product follows the 16-lane schedule of DotRows; the two updates
// run as one fused pass, each element computed mul-then-add with no FMA
// contraction, grad reading c before c is written. When v·c is not finite
// (a diverged row) nothing is written and PairStep reports false, so the
// caller can skip the pair instead of poisoning the rest of the model.
// v, c and grad must have equal lengths and must not overlap.
func PairStep(v, c, grad []float32, label, lr float32) bool {
	if len(c) != len(v) || len(grad) != len(v) {
		panic("vecmath: PairStep length mismatch")
	}
	dot := dot16(v, c)
	if dot-dot != 0 {
		return false
	}
	pairAxpy((label-Sigmoid(dot))*lr, v, c, grad)
	return true
}

// PairStepRef is the portable pure-Go reference for PairStep: same
// contract, bit-identical results on c, grad and the return value. It is
// the executable specification the SIMD path is property-tested against,
// and what non-amd64 and purego builds train with.
func PairStepRef(v, c, grad []float32, label, lr float32) bool {
	if len(c) != len(v) || len(grad) != len(v) {
		panic("vecmath: PairStepRef length mismatch")
	}
	dot := dotSched16(v, c)
	if dot-dot != 0 {
		return false
	}
	pairAxpyRef((label-Sigmoid(dot))*lr, v, c, grad)
	return true
}

// pairAxpyRef is the fused update pass: grad += g·c then c += g·v, element
// by element. The float32 conversions are fusion barriers (see
// dotSched16).
func pairAxpyRef(g float32, v, c, grad []float32) {
	c = c[:len(v)]
	grad = grad[:len(v)]
	for i, vi := range v {
		ci := c[i]
		grad[i] += float32(g * ci)
		c[i] = ci + float32(g*vi)
	}
}

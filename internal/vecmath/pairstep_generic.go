//go:build !amd64 || !gc || purego

package vecmath

func dot16(a, b []float32) float32 { return dotSched16(a, b) }

func pairAxpy(g float32, v, c, grad []float32) { pairAxpyRef(g, v, c, grad) }

// Prefetch is a cache hint on amd64 (see pairstep_amd64.go) and nothing here.
func Prefetch(row []float32) {}

//go:build !go1.1

package lib

// Every toolchain satisfies the go1.1 release tag, so this duplicate is
// skipped; a loader that left go1.N tags unset would load it and collide.
func fast() int { return 6 }

//go:build purego

package lib

// fast here redeclares the symbol in fast.go: purego is a tag nobody sets,
// so the loader must skip this file.
func fast() int { return 5 }

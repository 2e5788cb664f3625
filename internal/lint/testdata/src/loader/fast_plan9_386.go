package lib

// The _plan9_386 filename suffix keeps this duplicate off every host but
// plan9 on 386, exactly as go/build would.
func fast() int { return 4 }

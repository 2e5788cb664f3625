package lint

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// The loader fixture holds several files defining fast(): one behind
// //go:build !integration (loaded), the others excluded by an unset tag
// or a filename suffix for another platform (see TestFileNameMatches and
// TestBuildTagsMatch). If the loader ignored constraints, type checking
// would fail on the redeclaration — so a clean load IS the assertion.
// broken_test.go in the same directory references an undefined symbol;
// loading it would also fail, proving _test.go exclusion.
func TestLoadRespectsBuildConstraints(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("fixture pins the _windows suffix as the excluded variant")
	}
	mod := loadFixture(t, "loader", "example.com/lib")
	pkg := mod.Package("example.com/lib")
	if pkg == nil {
		t.Fatal("fixture package not loaded")
	}
	var names []string
	for _, f := range pkg.Files {
		names = append(names, filepath.Base(f.Path))
	}
	got := strings.Join(names, ",")
	if want := "fast.go,lib.go"; got != want {
		t.Errorf("loaded files = %s, want %s (tag- and suffix-excluded variants skipped, _test.go never read)", got, want)
	}
}

// File name constraints: a _GOOS, _GOARCH or _GOOS_GOARCH suffix for
// another platform keeps a file out; a name without one keeps it in.
func TestFileNameMatches(t *testing.T) {
	checkLoaded(t, map[string]bool{
		"lib.go":            true,
		"fast_windows.go":   false,
		"fast_plan9_386.go": false,
	})
}

// //go:build lines: a satisfied constraint keeps a file in, an unset tag
// (integration, purego) keeps it out, and the toolchain satisfies go1.N
// release tags.
func TestBuildTagsMatch(t *testing.T) {
	checkLoaded(t, map[string]bool{
		"fast.go":        true,  // !integration
		"slow.go":        false, // integration
		"fast_purego.go": false, // purego
		"fast_prego1.go": false, // !go1.1
	})
}

// checkLoaded loads the loader fixture and checks, for each named file in
// its directory, whether the loader kept it.
func checkLoaded(t *testing.T, want map[string]bool) {
	t.Helper()
	if runtime.GOOS == "windows" || runtime.GOOS == "plan9" {
		t.Skip("fixture pins the _windows and _plan9_386 suffixes as excluded variants")
	}
	mod := loadFixture(t, "loader", "example.com/lib")
	pkg := mod.Package("example.com/lib")
	if pkg == nil {
		t.Fatal("fixture package not loaded")
	}
	loaded := make(map[string]bool)
	for _, f := range pkg.Files {
		loaded[filepath.Base(f.Path)] = true
	}
	for name, w := range want {
		if _, err := os.Stat(filepath.Join("testdata", "src", "loader", name)); err != nil {
			t.Errorf("fixture file %s: %v", name, err)
			continue
		}
		if loaded[name] != w {
			t.Errorf("%s loaded = %v, want %v", name, loaded[name], w)
		}
	}
}

package lint

import (
	"go/token"
	"strings"
	"testing"
)

// The repository must lint clean: every true positive is fixed and every
// deliberate exception carries a //lint:allow. This is the same invariant
// the CI lint job enforces through cmd/sisg-lint, expressed as a test so
// `go test ./...` alone catches a reintroduced violation.
func TestRepositoryLintsClean(t *testing.T) {
	mod, err := Load("../..", "")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(mod.Pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the loader is missing most of the tree", len(mod.Pkgs))
	}
	for _, want := range []string{"sisg/internal/graph", "sisg/internal/dist", "sisg/cmd/sisg-train"} {
		if mod.Package(want) == nil {
			t.Errorf("package %s not loaded", want)
		}
	}
	if len(Analyzers()) != 9 {
		t.Fatalf("suite has %d analyzers, want 9", len(Analyzers()))
	}
	for _, d := range mod.Lint() {
		t.Errorf("repository not lint-clean: %s", d)
	}
	// The strict audit: every //lint:allow in the tree must have earned
	// its keep during the pass above, and name a real check.
	for _, d := range mod.StaleAllows() {
		t.Errorf("suppression audit: %s", d)
	}
}

// The stale-suppression audit: an allow that suppressed something is
// quiet, one that suppressed nothing is a finding, one naming a
// nonexistent check is a finding regardless of which analyzers ran, and
// so is one that suppresses but gives no reason.
func TestStaleAllows(t *testing.T) {
	mod := loadFixture(t, "allowaudit", "example.com/app")
	if diags := mod.Lint(GlobalRand()); len(diags) != 0 {
		t.Fatalf("fixture should lint clean (both violations are allowed), got %v", diags)
	}
	audit := mod.StaleAllows(GlobalRand())
	if len(audit) != 3 {
		t.Fatalf("StaleAllows = %v, want exactly the stale, the unknown-check and the reasonless findings", audit)
	}
	if !strings.Contains(audit[0].Message, "stale") || !strings.Contains(audit[0].Message, "globalrand") {
		t.Errorf("first audit finding = %q, want the stale globalrand allow", audit[0].Message)
	}
	if !strings.Contains(audit[1].Message, "nosuchcheck") {
		t.Errorf("second audit finding = %q, want the unknown-check allow", audit[1].Message)
	}
	if !strings.Contains(audit[2].Message, "no reason") || !strings.Contains(audit[2].Message, "globalrand") {
		t.Errorf("third audit finding = %q, want the reasonless globalrand allow", audit[2].Message)
	}
}

// An allow for a check outside the run set is not judged stale: a run of
// one analyzer must not condemn suppressions it never exercised.
func TestStaleAllowsScopedToRunSet(t *testing.T) {
	mod := loadFixture(t, "allowaudit", "example.com/app")
	mod.Lint(MapOrder()) // globalrand never runs
	audit := mod.StaleAllows(MapOrder())
	if len(audit) != 2 || !strings.Contains(audit[0].Message, "nosuchcheck") || !strings.Contains(audit[1].Message, "no reason") {
		t.Fatalf("StaleAllows(maporder) = %v, want only the unknown-check and the reasonless findings", audit)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:     token.Position{Filename: "a/b.go", Line: 12, Column: 3},
		Check:   "maporder",
		Message: "boom",
	}
	if got, want := d.String(), "a/b.go:12:3: maporder: boom"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestStandaloneCommentDetection(t *testing.T) {
	src := []byte("x := 1 // tail\n\t// solo\n")
	tail := strings.Index(string(src), "// tail")
	solo := strings.Index(string(src), "// solo")
	if standalone(src, tail) {
		t.Error("end-of-line comment misclassified as standalone")
	}
	if !standalone(src, solo) {
		t.Error("indented standalone comment not detected")
	}
	if !standalone([]byte("// top\n"), 0) {
		t.Error("comment at offset 0 not detected as standalone")
	}
}

func TestPathHasSegment(t *testing.T) {
	if !pathHasSegment("sisg/internal/graph", "graph") {
		t.Error("exact segment not matched")
	}
	if pathHasSegment("sisg/internal/graphics", "graph") {
		t.Error("substring wrongly matched as a segment")
	}
	if !pathHasSegment("example.com/checkpoint", "checkpoint") {
		t.Error("trailing segment not matched")
	}
}

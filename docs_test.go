package bench

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documents whose command lines must name real flags.
var documentedCommandFiles = []string{
	"README.md",
	".claude/skills/verify/SKILL.md",
	".github/workflows/ci.yml",
}

var (
	// flagDefRE matches a flag definition, flag.Int("name", …) or
	// flag.IntVar(&v, "name", …), capturing the name.
	flagDefRE = regexp.MustCompile(`\bflag\.[A-Z]\w*\((?:[^,"()]+,\s*)?"([^"]+)"`)
	// commandRE matches an invocation of one of the repo's commands, bare,
	// as /tmp/sisg-<name> or as go run ./cmd/sisg-<name>.
	commandRE = regexp.MustCompile(`(?:^|[\s/])(sisg-[a-z]+)\b`)
	// flagUseRE matches a flag argument, capturing its name.
	flagUseRE = regexp.MustCompile(`^--?([A-Za-z][\w-]*)`)
	// codeSpanRE matches a Markdown inline code span within one paragraph.
	codeSpanRE = regexp.MustCompile("`([^`\n]+(?:\n[^`\n]+)*)`")
	// testNameRE matches a Go test function name.
	testNameRE = regexp.MustCompile(`\bTest[A-Z]\w*`)
	// testFuncRE matches a test function declaration, capturing its name.
	testFuncRE = regexp.MustCompile(`(?m)^func (Test[A-Z]\w*)\(\w+ \*testing\.T\)`)
	// runPatternRE matches a go test -run argument, quoted or bare.
	runPatternRE = regexp.MustCompile("-run(?:=|\\s+)(?:'([^']*)'|\"([^\"]*)\"|([^\\s`]+))")
)

// The documents whose Test… names must name real tests, besides every
// package's doc.go.
var testCitingFiles = []string{
	"DESIGN.md",
	"README.md",
	".claude/skills/verify/SKILL.md",
}

// TestDocumentedTestNamesExist checks every Test… name the docs cite
// against the tests of the repository, so a deleted or renamed test cannot
// live on in the docs. A name inside a -run pattern is a regular
// expression: it has to match at least one test.
func TestDocumentedTestNamesExist(t *testing.T) {
	defined := testFuncs(t)
	pkgDocs, err := filepath.Glob("internal/*/doc.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append(pkgDocs, testCitingFiles...) {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		for _, m := range runPatternRE.FindAllStringSubmatch(text, -1) {
			for _, alt := range strings.Split(m[1]+m[2]+m[3], "|") {
				if !testNameRE.MatchString(alt) {
					continue // not a test name: -run NONE, or sisg-chaos's scenario filter
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: -run pattern %q: %v", doc, alt, err)
					continue
				}
				if !matchesAny(re, defined) {
					t.Errorf("%s: -run pattern %q matches no test", doc, alt)
				}
			}
		}
		for _, name := range testNameRE.FindAllString(runPatternRE.ReplaceAllString(text, ""), -1) {
			if !defined[name] {
				t.Errorf("%s cites %s, which is not a test", doc, name)
			}
		}
	}
}

// testFuncs returns the names of the test functions in every _test.go file
// of the repository, the benchmark module's included.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || (strings.HasPrefix(d.Name(), ".") && path != ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRE.FindAllSubmatch(src, -1) {
			out[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no test functions found")
	}
	return out
}

func matchesAny(re *regexp.Regexp, names map[string]bool) bool {
	for n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}

// TestDocumentedCommandLinesUseRealFlags checks every flag that a command
// line in the docs and CI passes to one of cmd/'s commands against the flags
// that command defines, so a deleted or renamed flag cannot live on in a
// documented workflow. go test, go vet and benchmark/run.sh lines are not
// commands of this module's cmd/ and are skipped.
func TestDocumentedCommandLinesUseRealFlags(t *testing.T) {
	defined := commandFlags(t)
	checked := 0
	for _, doc := range documentedCommandFiles {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, cl := range commandLines(doc, string(b)) {
			if strings.Contains(cl.text, "go test") || strings.Contains(cl.text, "go vet") ||
				strings.Contains(cl.text, "benchmark/run.sh") {
				continue
			}
			for _, m := range commandRE.FindAllStringSubmatchIndex(cl.text, -1) {
				name := cl.text[m[2]:m[3]]
				flags, ok := defined[name]
				if !ok {
					t.Errorf("%s:%d: %s is not a command under cmd/", doc, cl.line, name)
					continue
				}
				for _, f := range flagsAfter(cl.text[m[3]:]) {
					checked++
					if !flags[f] {
						t.Errorf("%s:%d: %s has no -%s flag: %q", doc, cl.line, name, f, strings.TrimSpace(cl.text))
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no documented command line passed a flag; the extraction is broken")
	}
}

// commandFlags maps each command under cmd/ to the flag names it defines,
// plus the -h and -help every flag.Parse accepts.
func commandFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	files, err := filepath.Glob("cmd/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]map[string]bool)
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		name := filepath.Base(filepath.Dir(f))
		if out[name] == nil {
			out[name] = map[string]bool{"h": true, "help": true}
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flagDefRE.FindAllSubmatch(src, -1) {
			out[name][string(m[1])] = true
		}
	}
	if len(out) == 0 {
		t.Fatal("no commands found under cmd/")
	}
	return out
}

// commandLine is one shell command as a document shows it, with the line
// it starts on.
type commandLine struct {
	line int
	text string
}

// commandLines extracts the shell command lines of a document: every line
// of a YAML file and of a Markdown code block (backslash continuations
// joined, # comments dropped), and every Markdown inline code span.
func commandLines(doc, src string) []commandLine {
	lines := strings.Split(src, "\n")
	markdown := strings.HasSuffix(doc, ".md")
	var out []commandLine
	inFence := false
	prose := make([]string, len(lines)) // Markdown outside code blocks, line for line
	for i := 0; i < len(lines); i++ {
		if markdown && strings.HasPrefix(strings.TrimSpace(lines[i]), "```") {
			inFence = !inFence
			continue
		}
		if markdown && !inFence {
			prose[i] = lines[i]
			continue
		}
		start, text := i, lines[i]
		for strings.HasSuffix(text, `\`) && i+1 < len(lines) {
			i++
			text = strings.TrimSuffix(text, `\`) + " " + lines[i]
		}
		out = append(out, commandLine{start + 1, stripComment(text)})
	}
	if markdown {
		joined := strings.Join(prose, "\n")
		for _, m := range codeSpanRE.FindAllStringSubmatchIndex(joined, -1) {
			line := 1 + strings.Count(joined[:m[0]], "\n")
			out = append(out, commandLine{line, strings.ReplaceAll(joined[m[2]:m[3]], "\n", " ")})
		}
	}
	return out
}

// stripComment drops a shell or YAML comment: everything from a # that
// starts a word.
func stripComment(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '#' && (i == 0 || s[i-1] == ' ' || s[i-1] == '\t') {
			return s[:i]
		}
	}
	return s
}

// flagsAfter returns the names of the flags in a command's argument list,
// which ends at the first shell operator.
func flagsAfter(args string) []string {
	var out []string
	for _, tok := range strings.Fields(args) {
		if strings.ContainsAny(tok, "|;&<>") {
			break
		}
		if m := flagUseRE.FindStringSubmatch(tok); m != nil {
			out = append(out, m[1])
		}
	}
	return out
}

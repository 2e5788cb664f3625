// Command sisg-lint runs the project's static analyzer suite (internal/lint)
// over the module: determinism, concurrency and durability invariants that
// go vet does not know about.
//
// Run it from anywhere inside the module; it takes no arguments:
//
//	go run ./cmd/sisg-lint
//
// Machine-readable output, one JSON object per diagnostic per line:
//
//	go run ./cmd/sisg-lint -json
//
// Diagnostics print as file:line:col: check: message. Suppress a single
// finding with an end-of-line (or directly-preceding) comment:
//
//	//lint:allow <check> <one-line reason>
//
// Suppressions are audited: an allow comment that suppresses nothing,
// names a check that does not exist or gives no reason is itself a
// finding, so suppressions cannot outlive the code they excuse.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"sisg/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit one JSON diagnostic per line instead of human text")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: sisg-lint [-json]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}

	root, err := moduleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sisg-lint:", err)
		os.Exit(2)
	}
	mod, err := lint.Load(root, "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sisg-lint:", err)
		os.Exit(2)
	}

	diags := append(mod.Lint(), mod.StaleAllows()...)
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		rel := d.Pos.Filename
		if r, err := filepath.Rel(root, rel); err == nil {
			rel = r
		}
		if *jsonOut {
			if err := enc.Encode(jsonDiag{File: rel, Line: d.Pos.Line, Col: d.Pos.Column, Check: d.Check, Message: d.Message}); err != nil {
				fmt.Fprintln(os.Stderr, "sisg-lint:", err)
				os.Exit(2)
			}
		} else {
			fmt.Printf("%s:%d:%d: %s: %s\n", rel, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Printf("%d diagnostics\n", len(diags))
		}
		os.Exit(1)
	}
}

// jsonDiag is the -json line format, stable for CI annotation tooling.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// moduleRoot walks up from dir to the enclosing go.mod.
func moduleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Command simvet runs the repo-invariant analyzer suite (internal/lint)
// over the tree and fails on findings:
//
//	go run ./cmd/simvet ./...
//
// Patterns are package directories relative to the working directory,
// with /... for a recursive walk (testdata and vendor trees are skipped
// unless named explicitly). Findings print one per line as
//
//	file:line:col: analyzer: message
//
// and the exit status is 1 when any finding survives its package's
// //lint:ignore directives, 2 on a loading or type-checking failure.
// The -list flag prints the analyzer suite and exits.
//
// The tree is loaded once per build configuration in buildConfigs — the
// host's default build and the purego build, which swaps
// internal/sim's assembly for its Go stand-ins — and the findings of
// both are reported once each. A file that no configuration compiles is
// named on stderr, so a new build tag cannot drop files from the suite
// unnoticed.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "print the analyzer suite and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simvet [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if err := run(flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "simvet:", err)
		os.Exit(2)
	}
}

// buildConfigs are the build tag sets simvet loads the tree under.
var buildConfigs = [][]string{nil, {"purego"}}

func run(patterns []string) error {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	root, err := moduleRoot(cwd)
	if err != nil {
		return err
	}
	// Patterns are cwd-relative on the command line; Load resolves
	// relative patterns against the module root, so absolutize first.
	abs := make([]string, len(patterns))
	for i, pat := range patterns {
		dir, rec := pat, ""
		if pat == "..." {
			dir, rec = ".", "/..."
		} else if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			dir, rec = rest, "/..."
		}
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(cwd, dir)
		}
		abs[i] = dir + rec
	}
	var diags []lint.Diagnostic
	seen := map[string]bool{}
	// skippedIn counts, per file, the configurations that excluded it.
	skippedIn := map[string]int{}
	for _, tags := range buildConfigs {
		pkgs, err := lint.Load(root, abs, lint.LoadOptions{Tags: tags})
		if err != nil {
			return fmt.Errorf("build tags %q: %w", tags, err)
		}
		for _, p := range pkgs {
			for _, f := range p.Skipped {
				skippedIn[f]++
			}
		}
		for _, d := range lint.Apply(pkgs, lint.All()) {
			if !seen[d.String()] {
				seen[d.String()] = true
				diags = append(diags, d)
			}
		}
	}
	var never []string
	for f, n := range skippedIn {
		if n == len(buildConfigs) {
			never = append(never, f)
		}
	}
	sort.Strings(never)
	for _, f := range never {
		fmt.Fprintf(os.Stderr, "simvet: %s: excluded by every build configuration, not analyzed\n", f)
	}
	for _, d := range diags {
		line := d.String()
		// Report paths relative to the invocation directory when they
		// shorten, matching go vet's output shape.
		if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			line = rel + strings.TrimPrefix(line, d.Pos.Filename)
		}
		fmt.Println(line)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
	return nil
}

// moduleRoot walks up from dir to the enclosing go.mod.
func moduleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// wantRE matches expected-diagnostic comments in fixture files:
//
//	rand.Intn(6) // want `determinism: math/rand global-state call`
//
// The backquoted payload is a regexp matched against
// "analyzer: message" for diagnostics reported on the comment's line;
// one line may carry several want clauses.
var wantRE = regexp.MustCompile("// want `([^`]*)`")

var fixtures struct {
	once sync.Once
	pkgs []*lint.Package
	err  error
}

// fixturePkgs loads every testdata/src fixture tree once (tests
// included — analyzers must prove they skip _test.go files) and shares
// the result: the source importer re-type-checks dependencies per Load
// call, so one call keeps the suite fast.
func fixturePkgs(t *testing.T) []*lint.Package {
	t.Helper()
	fixtures.once.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			fixtures.err = err
			return
		}
		src := filepath.Join(root, "internal", "lint", "testdata", "src")
		fixtures.pkgs, fixtures.err = lint.Load(root, []string{src + "/..."}, lint.LoadOptions{IncludeTests: true})
	})
	if fixtures.err != nil {
		t.Fatalf("loading fixtures: %v", fixtures.err)
	}
	if len(fixtures.pkgs) == 0 {
		t.Fatal("no fixture packages loaded")
	}
	return fixtures.pkgs
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the test directory")
		}
		dir = parent
	}
}

// casePkgs filters the loaded fixtures to one testdata/src/<name> tree.
func casePkgs(t *testing.T, name string) []*lint.Package {
	marker := string(filepath.Separator) + filepath.Join("testdata", "src", name)
	var out []*lint.Package
	for _, p := range fixturePkgs(t) {
		if strings.HasSuffix(p.Dir, marker) || strings.Contains(p.Dir, marker+string(filepath.Separator)) {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		t.Fatalf("no packages under testdata/src/%s", name)
	}
	return out
}

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

func collectWants(t *testing.T, pkgs []*lint.Package) []*want {
	t.Helper()
	var wants []*want
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := p.Fset.Position(c.Pos())
					for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	return wants
}

// TestAnalyzersGolden runs the full suite over each fixture tree and
// requires an exact match between reported diagnostics and the
// fixtures' want comments: every diagnostic must satisfy a want on its
// line, and every want must be hit — so the deliberate near-misses
// (seeded generators, _test.go files, the plan.go allowlist,
// unlock-then-block sequences, //lint:ignore'd lines) fail the test if
// an analyzer ever starts flagging them.
func TestAnalyzersGolden(t *testing.T) {
	for _, name := range []string{"determinism", "lockblock", "soacomplex", "obsconv", "journalerr"} {
		t.Run(name, func(t *testing.T) {
			pkgs := casePkgs(t, name)
			diags := lint.Apply(pkgs, lint.All())
			if len(diags) == 0 {
				t.Fatalf("no diagnostics on the %s fixtures; expected true positives", name)
			}
			wants := collectWants(t, pkgs)
			for _, d := range diags {
				text := d.Analyzer + ": " + d.Message
				found := false
				for _, w := range wants {
					if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(text) {
						w.matched = true
						found = true
					}
				}
				if !found {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: want %q matched no diagnostic", w.file, w.line, w.re)
				}
			}
		})
	}
}

// TestMalformedIgnoreDirective proves a reasonless //lint:ignore is
// itself reported (its own line cannot carry a want comment — a
// trailing comment would become part of the directive's fields).
func TestMalformedIgnoreDirective(t *testing.T) {
	pkgs := casePkgs(t, "badignore")
	diags := lint.Apply(pkgs, lint.All())
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "lint" || !strings.Contains(d.Message, "malformed ignore directive") {
		t.Fatalf("got %s, want the malformed-directive report", d)
	}
	if filepath.Base(d.Pos.Filename) != "badignore.go" || d.Pos.Line == 0 {
		t.Fatalf("report carries no usable position: %s", d)
	}
}

// TestAnalyzerSuite pins the suite's composition: five analyzers with
// stable names, each documented — the names are API, since they appear
// in //lint:ignore directives across the tree.
func TestAnalyzerSuite(t *testing.T) {
	got := lint.All()
	names := []string{"determinism", "lockblock", "soacomplex", "obsconv", "journalerr"}
	if len(got) != len(names) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(names))
	}
	for i, a := range got {
		if a.Name != names[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, names[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc line", a.Name)
		}
	}
}

// TestLoadHonoursBuildTags: Load compiles the files of the build its tags
// select and names the rest in Package.Skipped — internal/sim's assembly
// declarations (sweep_amd64.go) on amd64 by default, its Go stand-ins
// (sweep_noasm.go) under purego.
func TestLoadHonoursBuildTags(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tags := range [][]string{nil, {"purego"}} {
		pkgs, err := lint.Load(root, []string{filepath.Join(root, "internal", "sim")}, lint.LoadOptions{Tags: tags})
		if err != nil {
			t.Fatalf("tags %q: %v", tags, err)
		}
		if len(pkgs) != 1 {
			t.Fatalf("tags %q: %d packages, want 1", tags, len(pkgs))
		}
		loaded := map[string]bool{}
		for _, f := range pkgs[0].Files {
			loaded[filepath.Base(pkgs[0].Fset.Position(f.Pos()).Filename)] = true
		}
		skipped := map[string]bool{}
		for _, f := range pkgs[0].Skipped {
			skipped[filepath.Base(f)] = true
		}
		asm := runtime.GOARCH == "amd64" && len(tags) == 0
		for name, want := range map[string]bool{"sweep_amd64.go": asm, "sweep_noasm.go": !asm} {
			if loaded[name] != want || skipped[name] == want {
				t.Errorf("tags %q: %s loaded=%v skipped=%v, want loaded=%v", tags, name, loaded[name], skipped[name], want)
			}
		}
	}
}

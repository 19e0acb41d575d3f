package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// LoadOptions configure Load.
type LoadOptions struct {
	// IncludeTests additionally parses in-package _test.go files (external
	// _test packages are skipped). The golden-file harness uses this so
	// analyzers can prove they skip test files; the simvet driver checks
	// production code only.
	IncludeTests bool
	// Tags are build tags honoured besides the default context's (GOOS,
	// GOARCH, cgo, the release tags). Files the resulting build
	// excludes are not parsed; Package.Skipped names them.
	Tags []string
}

// Load parses and type-checks the packages matched by patterns, which are
// directory paths relative to root ("./internal/jobs") with an optional
// "..." suffix for a recursive walk ("./..."). Walks skip testdata, vendor
// and hidden directories — name a testdata tree explicitly to analyze it
// (the golden tests do). Type-checking resolves imports with the source
// importer, so the process must run inside the module (any cwd under the
// repo works; the driver and tests both do).
func Load(root string, patterns []string, opts LoadOptions) ([]*Package, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(root, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := loadDir(fset, imp, root, modPath, dir, opts)
		if err != nil {
			return nil, err
		}
		if p != nil {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

// modulePath reads the module path from root/go.mod.
func modulePath(root string) (string, error) {
	raw, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// expandPatterns resolves patterns to a sorted, de-duplicated list of
// absolute package directories.
func expandPatterns(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." {
			pat, recursive = ".", true
		} else if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			pat, recursive = rest, true
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(root, dir)
		}
		info, err := os.Stat(dir)
		if err != nil || !info.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q: not a directory", pat)
		}
		if !recursive {
			add(dir)
			continue
		}
		err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			// The walk root is always accepted (so an explicit
			// ./internal/lint/testdata/src/... pattern works); below it the
			// usual go-tool exclusions apply.
			if path != dir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// loadDir parses and type-checks one package directory. Returns nil when
// the directory holds no analyzable files.
func loadDir(fset *token.FileSet, imp types.Importer, root, modPath, dir string, opts LoadOptions) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	ctx := build.Default
	ctx.BuildTags = append(append([]string(nil), ctx.BuildTags...), opts.Tags...)
	var files []*ast.File
	var skipped []string
	pkgName := ""
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		isTest := strings.HasSuffix(name, "_test.go")
		if isTest && !opts.IncludeTests {
			continue
		}
		// Only the files this build compiles: a package may hold
		// per-architecture files that declare the same names.
		if ok, err := ctx.MatchFile(dir, name); err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		} else if !ok {
			skipped = append(skipped, filepath.Join(dir, name))
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		fname := f.Name.Name
		if isTest && strings.HasSuffix(fname, "_test") {
			continue // external test package; out of scope
		}
		if pkgName == "" {
			pkgName = fname
		}
		if fname != pkgName {
			return nil, fmt.Errorf("lint: %s: multiple packages %s and %s", dir, pkgName, fname)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	path := modPath
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: fset, Files: files, Skipped: skipped, Types: tpkg, Info: info}, nil
}

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, reported by the driver as
// "file:line:col: analyzer: message".
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one parsed and type-checked package under analysis.
type Package struct {
	// Path is the package's import path (module path + directory).
	Path string
	// Dir is the package's directory on disk.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	// Skipped are the .go files in Dir that build constraints excluded
	// from this load.
	Skipped []string
	Types   *types.Package
	Info    *types.Info
}

// Analyzer is one repo-invariant check. Run returns raw findings; the
// Apply driver filters //lint:ignore'd lines and sorts.
type Analyzer struct {
	// Name is the analyzer's short identifier, used in diagnostics and in
	// //lint:ignore directives.
	Name string
	// Doc is a one-line statement of the contract the analyzer encodes.
	Doc string
	Run func(*Package) []Diagnostic
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism(),
		Lockblock(),
		SoaComplex(),
		ObsConv(),
		JournalErr(),
	}
}

// ignoreDirective is a parsed "//lint:ignore <analyzer> <reason>" comment.
// It suppresses findings of the named analyzer ("*" for all) on the
// directive's own line and on the line directly below it, so both the
// trailing-comment and the preceding-line styles work:
//
//	foo() //lint:ignore lockblock s.mu is the file handle's own lock
//
//	//lint:ignore journalerr failures are counted by the store
//	_ = s.Append(ev)
const ignorePrefix = "//lint:ignore"

// ignoreSet maps filename → line → analyzer names suppressed on it.
type ignoreSet map[string]map[int]map[string]bool

// buildIgnores collects the package's ignore directives. A directive
// without an analyzer name or without a reason is itself a finding — an
// unexplained suppression is exactly the reviewer-memory problem the
// suite exists to remove.
func buildIgnores(p *Package) (ignoreSet, []Diagnostic) {
	set := ignoreSet{}
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(c.Text, ignorePrefix))
				if len(fields) < 2 {
					diags = append(diags, Diagnostic{
						Pos:      pos,
						Analyzer: "lint",
						Message:  "malformed ignore directive: want //lint:ignore <analyzer> <reason>",
					})
					continue
				}
				name := fields[0]
				byLine := set[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					set[pos.Filename] = byLine
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if byLine[line] == nil {
						byLine[line] = map[string]bool{}
					}
					byLine[line][name] = true
				}
			}
		}
	}
	return set, diags
}

func (s ignoreSet) suppressed(d Diagnostic) bool {
	names := s[d.Pos.Filename][d.Pos.Line]
	return names["*"] || names[d.Analyzer]
}

// Apply runs every analyzer over every package, drops findings suppressed
// by //lint:ignore directives, and returns the rest sorted by position.
func Apply(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, p := range pkgs {
		ignores, diags := buildIgnores(p)
		out = append(out, diags...)
		for _, a := range analyzers {
			for _, d := range a.Run(p) {
				if !ignores.suppressed(d) {
					out = append(out, d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// hasPathSuffix reports whether an import path ends in the given
// slash-separated suffix on a path-segment boundary. Analyzer scopes
// match by suffix so the testdata fixture trees (whose packages live
// under internal/lint/testdata/src/<case>/…) hit the same rules as the
// real packages they mirror.
func hasPathSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// inTestFile reports whether the node's position lies in a _test.go
// file. The contracts bind production code; tests may use banned
// constructs (the parity reference simulator keeps complex128 on
// purpose, fixtures seed math/rand freely).
func (p *Package) inTestFile(n ast.Node) bool {
	return strings.HasSuffix(p.Fset.Position(n.Pos()).Filename, "_test.go")
}

// position is shorthand for the fset lookup.
func (p *Package) position(n ast.Node) token.Position {
	return p.Fset.Position(n.Pos())
}

// funcObj resolves a call expression's callee to its *types.Func, seeing
// through parenthesization. Returns nil for builtins, type conversions,
// and calls of function-typed values.
func (p *Package) funcObj(call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj, _ := p.Info.Uses[fn].(*types.Func)
		return obj
	case *ast.SelectorExpr:
		obj, _ := p.Info.Uses[fn.Sel].(*types.Func)
		return obj
	}
	return nil
}

// recvTypePkgPath returns the package path and type name of a method's
// receiver named type ("" for non-methods), unwrapping the pointer.
func recvTypePkgPath(fn *types.Func) (pkgPath, typeName string) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Path(), obj.Name()
}

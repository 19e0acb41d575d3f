package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// journalMutators are the store methods whose error results carry the
// durability verdict: a failed write or fsync means the event the
// caller just recorded may not survive a crash.
var journalMutators = map[string]bool{
	"Append":    true,
	"Write":     true,
	"Commit":    true,
	"Sync":      true,
	"Compact":   true,
	"PutResult": true,
}

// JournalErr flags dropped error results from journal/store mutators —
// both the bare statement form `s.Append(ev)` and the explicit discard
// `_ = s.Append(ev)` or `seq, _ := s.Write(ev)`, whatever becomes of
// the other results. The explicit form is flagged on purpose: a
// durability error that is safe to drop deserves a
// //lint:ignore journalerr <why> stating the recovery story (usually
// "the store counts it in store_journal_errors_total and the caller
// degrades to in-memory").
func JournalErr() *Analyzer {
	return &Analyzer{
		Name: "journalerr",
		Doc:  "journal/store mutator errors must be handled or suppressed with a reasoned //lint:ignore",
		Run:  runJournalErr,
	}
}

func runJournalErr(p *Package) []Diagnostic {
	var diags []Diagnostic
	report := func(n ast.Node, recv, meth, how string) {
		diags = append(diags, Diagnostic{
			Pos:      p.position(n),
			Analyzer: "journalerr",
			Message:  fmt.Sprintf("error from %s.%s %s; handle it or //lint:ignore journalerr with the recovery story", recv, meth, how),
		})
	}
	for _, f := range p.Files {
		if p.inTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if fn, recv, ok := p.journalMutatorCall(s.X); ok {
					report(s, recv, fn.Name(), "discarded by calling as a statement")
				}
			case *ast.AssignStmt:
				if len(s.Rhs) != 1 || !isBlank(s.Lhs[len(s.Lhs)-1]) {
					return true
				}
				if fn, recv, ok := p.journalMutatorCall(s.Rhs[0]); ok {
					report(s, recv, fn.Name(), "assigned to _")
				}
			}
			return true
		})
	}
	return diags
}

// journalMutatorCall matches e as a call to a journal/store mutator
// returning an error, yielding the function and receiver type name.
func (p *Package) journalMutatorCall(e ast.Expr) (*types.Func, string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, "", false
	}
	fn := p.funcObj(call)
	if fn == nil || !journalMutators[fn.Name()] {
		return nil, "", false
	}
	pkg, typ := recvTypePkgPath(fn)
	if !hasPathSuffix(pkg, "jobs/store") {
		return nil, "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return nil, "", false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if named, ok := last.(*types.Named); !ok || named.Obj().Pkg() != nil || named.Obj().Name() != "error" {
		return nil, "", false
	}
	return fn, typ, true
}

// isBlank reports whether e is the blank identifier: in an assignment
// from one call, the last left-hand side is where the error lands.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// lockblockScopes are the serving-layer packages whose mutexes guard the
// job tables every request path contends on. A blocking call under one
// of those locks is the fleet-wedging bug class the journal's
// Write/Commit split exists to rule out.
var lockblockScopes = []string{
	"internal/jobs",
	"internal/jobs/store",
	"internal/fleet",
}

// storeDiskCalls are the journal/store methods that reach the disk —
// the mutators block on fsync or rename, GetResult reads and decodes a
// whole result file — so calling one with a mutex held puts the disk on
// every contending goroutine's critical path. Write is deliberately
// absent: it appends one line; never fsyncs, renames or compacts — the
// one store mutator a tier calls inside its critical section.
var storeDiskCalls = map[string]bool{
	"Append":    true,
	"Commit":    true,
	"Sync":      true,
	"Compact":   true,
	"Close":     true,
	"PutResult": true,
	"GetResult": true,
}

// Lockblock flags blocking calls — journal/store disk calls, fsync,
// net/http round trips, time.Sleep, WaitGroup waits, channel operations
// — made while a sync.Mutex or sync.RWMutex is provably held. The
// analysis is intra-function: it tracks Lock/RLock and Unlock/RUnlock
// pairs linearly through each function body, descends into branch
// bodies on a copy of the lock state, and treats function literals as
// separate scopes. deferred Unlocks do not release for the remainder of
// the body (they run at return, which is exactly why blocking under
// them is a bug). sync.Cond.Wait is exempt: it releases the lock while
// blocked.
func Lockblock() *Analyzer {
	return &Analyzer{
		Name: "lockblock",
		Doc:  "no blocking call (journal append/fsync, HTTP, sleep, channel op) while a mutex is held",
		Run:  runLockblock,
	}
}

func runLockblock(p *Package) []Diagnostic {
	for _, s := range lockblockScopes {
		if hasPathSuffix(p.Path, s) {
			lp := &lockblockPass{p: p}
			for _, f := range p.Files {
				if p.inTestFile(f) {
					continue
				}
				for _, decl := range f.Decls {
					if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
						lp.scanStmts(fd.Body.List, lockState{})
					}
				}
			}
			return lp.diags
		}
	}
	return nil
}

// lockState maps the rendered receiver expression of a Lock call
// ("p.mu", "s.mu") to its held depth in the current scope.
type lockState map[string]int

func (ls lockState) clone() lockState {
	c := make(lockState, len(ls))
	for k, v := range ls {
		c[k] = v
	}
	return c
}

// heldName returns the name of a held mutex (the lexically smallest,
// for deterministic messages), or "" when none is held.
func (ls lockState) heldName() string {
	var held []string
	for k, v := range ls {
		if v > 0 {
			held = append(held, k)
		}
	}
	if len(held) == 0 {
		return ""
	}
	sort.Strings(held)
	return held[0]
}

type lockblockPass struct {
	p     *Package
	diags []Diagnostic
}

func (lp *lockblockPass) report(n ast.Node, format string, args ...any) {
	lp.diags = append(lp.diags, Diagnostic{
		Pos:      lp.p.position(n),
		Analyzer: "lockblock",
		Message:  fmt.Sprintf(format, args...),
	})
}

func (lp *lockblockPass) scanStmts(stmts []ast.Stmt, held lockState) {
	for _, st := range stmts {
		lp.scanStmt(st, held)
	}
}

func (lp *lockblockPass) scanStmt(st ast.Stmt, held lockState) {
	switch s := st.(type) {
	case nil:
	case *ast.ExprStmt:
		lp.scanExpr(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			lp.scanExpr(e, held)
		}
		for _, e := range s.Lhs {
			lp.scanExpr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						lp.scanExpr(e, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			lp.scanExpr(e, held)
		}
	case *ast.IncDecStmt:
		lp.scanExpr(s.X, held)
	case *ast.SendStmt:
		if mu := held.heldName(); mu != "" {
			lp.report(s, "channel send while %s is held (may block until a receiver is ready)", mu)
		}
		lp.scanExpr(s.Value, held)
	case *ast.GoStmt:
		// The spawned call runs elsewhere; only argument evaluation (and
		// any function literal body, as its own scope) happens here.
		lp.scanCallShell(s.Call, held)
	case *ast.DeferStmt:
		// Deferred work runs at return. A deferred Unlock therefore does
		// NOT release the lock for the rest of the body, and a deferred
		// blocking call is not blocking here.
		lp.scanCallShell(s.Call, held)
	case *ast.BlockStmt:
		lp.scanStmts(s.List, held)
	case *ast.LabeledStmt:
		lp.scanStmt(s.Stmt, held)
	case *ast.IfStmt:
		lp.scanStmt(s.Init, held)
		lp.scanExpr(s.Cond, held)
		lp.scanStmts(s.Body.List, held.clone())
		if s.Else != nil {
			lp.scanStmt(s.Else, held.clone())
		}
	case *ast.ForStmt:
		loop := held.clone()
		lp.scanStmt(s.Init, loop)
		if s.Cond != nil {
			lp.scanExpr(s.Cond, loop)
		}
		lp.scanStmts(s.Body.List, loop)
		lp.scanStmt(s.Post, loop)
	case *ast.RangeStmt:
		if mu := held.heldName(); mu != "" {
			if t, ok := lp.p.Info.Types[s.X]; ok {
				if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
					lp.report(s, "range over channel while %s is held (blocks until the channel closes)", mu)
				}
			}
		}
		lp.scanExpr(s.X, held)
		lp.scanStmts(s.Body.List, held.clone())
	case *ast.SwitchStmt:
		lp.scanStmt(s.Init, held)
		if s.Tag != nil {
			lp.scanExpr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lp.scanStmts(cc.Body, held.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		lp.scanStmt(s.Init, held)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lp.scanStmts(cc.Body, held.clone())
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if mu := held.heldName(); mu != "" && !hasDefault {
			lp.report(s, "select with no default while %s is held (blocks until a case is ready)", mu)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				lp.scanStmts(cc.Body, held.clone())
			}
		}
	}
}

// scanCallShell scans a go/defer call's arguments and any function
// literal (as a fresh scope) without classifying the call itself.
func (lp *lockblockPass) scanCallShell(call *ast.CallExpr, held lockState) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		lp.scanStmts(lit.Body.List, lockState{})
	}
	for _, arg := range call.Args {
		lp.scanExpr(arg, held)
	}
}

func (lp *lockblockPass) scanExpr(e ast.Expr, held lockState) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			lp.scanStmts(x.Body.List, lockState{})
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				if mu := held.heldName(); mu != "" {
					lp.report(x, "channel receive while %s is held (may block until a sender is ready)", mu)
				}
			}
		case *ast.CallExpr:
			lp.classifyCall(x, held)
		}
		return true
	})
}

func (lp *lockblockPass) classifyCall(call *ast.CallExpr, held lockState) {
	fn := lp.p.funcObj(call)
	if fn == nil {
		return
	}
	pkg, typ := recvTypePkgPath(fn)
	// Lock-state transitions on sync.Mutex / sync.RWMutex.
	if pkg == "sync" && (typ == "Mutex" || typ == "RWMutex") {
		key := muKey(call)
		switch fn.Name() {
		case "Lock", "RLock":
			held[key]++
		case "Unlock", "RUnlock":
			if held[key] > 0 {
				held[key]--
			}
		}
		return
	}
	// sync.Cond.Wait atomically releases the lock while blocked — the
	// one sanctioned way to block inside a critical section.
	if pkg == "sync" && typ == "Cond" && fn.Name() == "Wait" {
		return
	}
	mu := held.heldName()
	if mu == "" {
		return
	}
	if what := blockingCall(fn, pkg, typ); what != "" {
		lp.report(call, "%s while %s is held (move the blocking work outside the critical section)", what, mu)
	}
}

// muKey renders the receiver expression of a Lock/Unlock call ("s.mu").
func muKey(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "<mutex>"
	}
	return types.ExprString(sel.X)
}

// blockingCall describes fn when it is in the blocking set, "" otherwise.
func blockingCall(fn *types.Func, recvPkg, recvType string) string {
	name := fn.Name()
	switch {
	case recvPkg == "" && funcPkgPath(fn) == "time" && name == "Sleep":
		return "time.Sleep"
	case recvPkg == "os" && recvType == "File" && name == "Sync":
		return "(*os.File).Sync (fsync)"
	case recvPkg == "net/http" && recvType == "Client":
		switch name {
		case "Do", "Get", "Post", "PostForm", "Head":
			return "http.Client round trip"
		}
	case recvPkg == "" && funcPkgPath(fn) == "net/http":
		switch name {
		case "Get", "Post", "PostForm", "Head":
			return "net/http round trip"
		}
	case recvPkg == "sync" && recvType == "WaitGroup" && name == "Wait":
		return "sync.WaitGroup.Wait"
	case hasPathSuffix(recvPkg, "jobs/store") && storeDiskCalls[name]:
		return fmt.Sprintf("journal/store disk call %s.%s", recvType, name)
	}
	return ""
}

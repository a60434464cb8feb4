package vetcheck

import (
	"go/ast"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// The sim lock operations, recognised by the method's receiver type: a
// sync.Mutex, or any other type that happens to have a Lock method, is not
// a sim lock.
var (
	simAcquires = []anchor{
		declare("sim", "Mutex", "Lock"), declare("sim", "RWMutex", "Lock"), declare("sim", "RWMutex", "RLock"),
	}
	simReleases = []anchor{
		declare("sim", "Mutex", "Unlock"), declare("sim", "RWMutex", "Unlock"), declare("sim", "RWMutex", "RUnlock"),
	}
)

func anyFunc(set []anchor, fn *types.Func) bool {
	for _, a := range set {
		if a.isFunc(fn) {
			return true
		}
	}
	return false
}

// heldWalker walks one function body in source order with the set of sim
// locks the executing proc holds, for locksend and lockorder. held maps the
// lock's receiver expression as written ("s.mu") to its class. Branch
// bodies get a copy of the set, so an early-exit unlock inside one arm does
// not leak into the fall-through path; a deferred Unlock keeps the lock
// held to the end of the function; function literals and go statements are
// skipped, since they run in other procs without this one's locks.
type heldWalker struct {
	pkg *Package
	// acquire sees each sim lock acquisition before the lock joins held.
	acquire func(call *ast.CallExpr, class string, held map[string]string)
	// call sees every other call made while at least one lock is held.
	call func(call *ast.CallExpr, held map[string]string)
}

// lockOp classifies a call: +1 acquisition, -1 release, 0 neither, with the
// receiver expression the operation is applied to.
func (w *heldWalker) lockOp(call *ast.CallExpr) (recv ast.Expr, op int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, 0
	}
	switch fn := callee(w.pkg.info, call); {
	case anyFunc(simAcquires, fn):
		return sel.X, +1
	case anyFunc(simReleases, fn):
		return sel.X, -1
	}
	return nil, 0
}

// lockClass names a lock's class: the declaring package and name of the
// field or variable that holds it ("vm.mu", "threadgroup.tasklist") — one
// class per field, not per instance, matching how hierarchies are designed.
func (w *heldWalker) lockClass(recv ast.Expr) string {
	switch x := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		return w.lockClass(x.Sel)
	case *ast.IndexExpr:
		return w.lockClass(x.X)
	case *ast.Ident:
		if obj := w.pkg.info.ObjectOf(x); obj != nil && obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + obj.Name()
		}
	}
	return w.pkg.Name + "." + types.ExprString(recv)
}

func (w *heldWalker) stmts(list []ast.Stmt, held map[string]string) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

// branch walks a nested body on a copy of the held set.
func (w *heldWalker) branch(list []ast.Stmt, held map[string]string) {
	c := make(map[string]string, len(held))
	for k, v := range held {
		c[k] = v
	}
	w.stmts(list, c)
}

func (w *heldWalker) stmt(s ast.Stmt, held map[string]string) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		w.scan(st.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held for the remainder of the
		// function: simply not removing it from held models that exactly.
		if _, op := w.lockOp(st.Call); op >= 0 {
			w.scan(st.Call, held)
		}
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			w.scan(rhs, held)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.scan(e, held)
		}
	case *ast.DeclStmt:
		w.scan(st.Decl, held)
	case *ast.IfStmt:
		if st.Init != nil {
			w.stmt(st.Init, held)
		}
		w.scan(st.Cond, held)
		w.branch(st.Body.List, held)
		if st.Else != nil {
			w.branch([]ast.Stmt{st.Else}, held)
		}
	case *ast.BlockStmt:
		w.branch(st.List, held)
	case *ast.ForStmt:
		if st.Init != nil {
			w.stmt(st.Init, held)
		}
		if st.Cond != nil {
			w.scan(st.Cond, held)
		}
		w.branch(st.Body.List, held)
	case *ast.RangeStmt:
		w.scan(st.X, held)
		w.branch(st.Body.List, held)
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init, held)
		}
		if st.Tag != nil {
			w.scan(st.Tag, held)
		}
		w.clauses(st.Body, held)
	case *ast.TypeSwitchStmt:
		w.clauses(st.Body, held)
	case *ast.SelectStmt:
		w.clauses(st.Body, held)
	case *ast.LabeledStmt:
		w.stmt(st.Stmt, held)
	}
}

func (w *heldWalker) clauses(body *ast.BlockStmt, held map[string]string) {
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			w.branch(cc.Body, held)
		case *ast.CommClause:
			w.branch(cc.Body, held)
		}
	}
}

// scan applies every call inside n, in source order: lock operations update
// held, anything else is reported to the client while a lock is held.
func (w *heldWalker) scan(n ast.Node, held map[string]string) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch recv, op := w.lockOp(call); {
		case op > 0:
			class := w.lockClass(recv)
			if w.acquire != nil {
				w.acquire(call, class, held)
			}
			held[types.ExprString(recv)] = class
		case op < 0:
			delete(held, types.ExprString(recv))
		case len(held) > 0 && w.call != nil:
			w.call(call, held)
		}
		return true
	})
}

// heldList renders the held receivers for a message.
func heldList(held map[string]string) string {
	return strings.Join(slices.Sorted(maps.Keys(held)), ", ")
}

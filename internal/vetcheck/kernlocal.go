package vetcheck

import (
	"go/ast"
	"go/token"
)

// KernLocal enforces the replicated-kernel locality contract (DESIGN.md
// §11): kernels share nothing, so code executing on one kernel's event path
// must not read or write another kernel's mutable state except by sending
// messages through its own endpoint. Two access shapes break that promise
// and are flagged in every function reachable from a handler root
// (reach.go):
//
//  1. obtaining a peer endpoint — a `.Endpoint(n)` call or an
//     `.endpoints[i]` index. A kernel's sanctioned exit is Send/Call on the
//     endpoint it cached at construction; grabbing another kernel's
//     endpoint is touching its doorstep directly.
//  2. reaching through the cluster table — `.Kernels[i]`, `range .Kernels`,
//     or a `.Kernel(i)` call. Dereferencing a *Kernel that is not the
//     executing thread's own handle means one event touches two kernels'
//     state.
//
// Either shape would run correctly on the simulator — one engine runs every
// event — but it would model a shared-memory shortcut the paper's kernels do
// not have, and it would make the lane tag on the event a lie. Every such
// site is either removed or carries a written justification.
type KernLocal struct{}

// Name implements Analyzer.
func (KernLocal) Name() string { return "kernlocal" }

// Check implements Analyzer.
func (KernLocal) Check(t *Tree) []Finding {
	ci := t.calls()
	var out []Finding
	for _, pkg := range t.Pkgs {
		if !kernelSide(pkg.Name) {
			continue
		}
		roots := handlerRoots(pkg)
		for _, rb := range ci.reachableBodies(pkg, roots) {
			out = append(out, checkLocality(t, rb.body)...)
		}
	}
	return out
}

// checkLocality flags foreign-handle accesses in one reachable body.
func checkLocality(t *Tree, body ast.Node) []Finding {
	var out []Finding
	flag := func(pos token.Pos, msg string) {
		out = append(out, Finding{Pos: t.Fset.Position(pos), Rule: "kernlocal", Message: msg})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			sel, ok := node.Fun.(*ast.SelectorExpr)
			if !ok {
				break
			}
			switch sel.Sel.Name {
			case "Endpoint":
				if len(node.Args) == 1 {
					flag(node.Pos(), "handler path obtains a kernel endpoint by node ID; "+
						"cross-kernel interaction must go through this kernel's own cached endpoint "+
						"(Send/Call), not a peer's — kernels interact only by messages")
				}
			case "Kernel":
				if len(node.Args) == 1 {
					flag(node.Pos(), "handler path dereferences the cluster table (.Kernel(n)); "+
						"an event handler touching a foreign *Kernel's state breaks the shared-nothing "+
						"contract — route the operation through msg instead")
				}
			}
		case *ast.IndexExpr:
			switch name := finalSelectorName(node.X); name {
			case "Kernels":
				flag(node.Pos(), "handler path indexes the cluster table (.Kernels[i]); "+
					"an event handler touching a foreign *Kernel's state breaks the shared-nothing "+
					"contract — route the operation through msg instead")
			case "endpoints":
				flag(node.Pos(), "handler path indexes the endpoint table directly; "+
					"only the fabric's delivery step may touch a peer's queue")
			}
		case *ast.RangeStmt:
			if finalSelectorName(node.X) == "Kernels" {
				flag(node.X.Pos(), "handler path ranges over the cluster table; "+
					"an event visiting every kernel's state serialises the whole machine — "+
					"use a multicast or per-kernel messages")
			}
		}
		return true
	})
	return out
}

// finalSelectorName returns the last selector component of an expression
// ("a.b.Kernels" -> "Kernels", "Kernels" -> "Kernels"), or "".
func finalSelectorName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

package vetcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// SharedMut inventories package-level mutable state reachable from handler
// paths in kernel-side packages. A package-level var touched by two
// kernels' handlers is one instance shared by every kernel: a covert
// channel that breaks the share-nothing model the replicated-kernel design
// promises. Every such var must be either moved into per-kernel (or
// per-handler) state or carry an allow-directive on its declaration stating
// why sharing it is harmless (e.g. written once at init and read-only
// thereafter).
//
// Exempt without annotation:
//   - consts (immutable by construction);
//   - blank assignments (`var _ I = ...` interface assertions);
//   - error sentinels — a var named Err*/err* or initialized from
//     errors.New / fmt.Errorf, by convention never reassigned;
//   - vars never referenced from handler-reachable code.
type SharedMut struct{}

// Name implements Analyzer.
func (SharedMut) Name() string { return "sharedmut" }

// Check implements Analyzer.
func (SharedMut) Check(t *Tree) []Finding {
	ci := t.calls()
	var out []Finding
	for _, pkg := range t.Pkgs {
		if !kernelSide(pkg.Name) {
			continue
		}
		roots := handlerRoots(pkg, rootOpts{exported: true})
		used := make(map[string]bool)
		for _, rb := range ci.reachableBodies(pkg, roots) {
			ast.Inspect(rb.body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					used[id.Name] = true
				}
				return true
			})
		}
		for _, file := range pkg.Files {
			if file.Test {
				continue
			}
			for _, decl := range file.AST.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if name.Name == "_" || isErrSentinel(name.Name, vs, i) {
							continue
						}
						if !used[name.Name] {
							continue
						}
						out = append(out, Finding{
							Pos:  t.Fset.Position(name.Pos()),
							Rule: "sharedmut",
							Message: fmt.Sprintf("package-level mutable var %s is referenced from "+
								"handler-reachable code; it is one instance shared by every kernel, a "+
								"channel between kernels that is not a message — move it into "+
								"per-kernel state or annotate why sharing it is harmless", name.Name),
						})
					}
				}
			}
		}
	}
	return out
}

// isErrSentinel reports whether the i-th name of a var spec is an error
// sentinel by naming convention or initializer.
func isErrSentinel(name string, vs *ast.ValueSpec, i int) bool {
	if strings.HasPrefix(name, "Err") || strings.HasPrefix(name, "err") {
		return true
	}
	if i >= len(vs.Values) {
		return false
	}
	call, ok := vs.Values[i].(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	return (pkgID.Name == "errors" && sel.Sel.Name == "New") ||
		(pkgID.Name == "fmt" && sel.Sel.Name == "Errorf")
}

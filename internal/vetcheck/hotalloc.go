package vetcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// HotAlloc enforces the zero-allocation contract on declared hot paths
// (DESIGN.md §12). A function whose doc comment carries the marker
//
//	//popcornvet:hotpath
//
// is a hot root: it runs once per simulated event or per message, so a
// single allocation in it multiplies by the event count and turns the
// benchmark tables into GC benchmarks. The analyzer closes each root over
// package-local calls (the same name-based reachability the kernel-locality
// analyzers use, reach.go) and flags every heap-allocating construct it can
// see syntactically in the reachable bodies:
//
//   - make / new calls and address-of composite literals (&T{...});
//   - slice and map literals (their backing store is heap-allocated the
//     moment the value escapes, which package-local analysis must assume);
//   - append, which reallocates the backing array whenever capacity runs
//     out — hot paths must recycle capacity (head-index rings, free lists)
//     or carry a written justification that growth is amortized;
//   - fmt.* and errors.* calls: the result is heap-allocated and the
//     variadic ...any parameters box every non-pointer argument;
//   - non-constant string concatenation, += on strings, and conversions
//     between string and []byte or into interfaces — each copies or boxes;
//   - function literals, which allocate a closure per evaluation when they
//     capture variables;
//   - defer inside a loop, which heap-allocates its frame per iteration
//     (the open-coded fast path only applies to straight-line defers).
//
// Propagation stops at functions marked //popcornvet:coldpath: error
// construction, dump/report helpers and other paths that run O(1) times per
// run may allocate freely, and the marker documents that decision at the
// declaration. A site that must allocate on a hot path (a free list's cold
// miss, amortized ring growth, a fatal-error exit) carries the usual
// justified waiver: //popcornvet:allow hotalloc <reason>.
//
// Like the rest of the framework the analysis is name-based and
// package-local: cross-package calls are invisible (each package annotates
// its own hot surface), methods sharing a bare name merge, and anything the
// resolver cannot see is not flagged. The escape-baseline gate
// (cmd/popcornvet -escapes, ESCAPES.json) covers the compiler's side of the
// same contract; the AllocsPerRun guards in each package pin the runtime
// result.
type HotAlloc struct{}

// Name implements Analyzer.
func (HotAlloc) Name() string { return "hotalloc" }

// Markers recognised in function doc comments. They deliberately do not
// share the popcornvet:allow prefix: they declare scope, not suppression.
const (
	hotMarker  = "popcornvet:hotpath"
	coldMarker = "popcornvet:coldpath"
)

// docMarked reports whether fn's doc comment contains the given marker on a
// line of its own.
func docMarked(fd *ast.FuncDecl, marker string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == marker {
			return true
		}
	}
	return false
}

// Check implements Analyzer.
func (HotAlloc) Check(t *Tree) []Finding {
	ci := t.calls()
	var out []Finding
	for _, pkg := range t.Pkgs {
		via := hotVia(ci, pkg)
		if via == nil {
			continue
		}
		for _, file := range pkg.Files {
			if file.Test {
				continue
			}
			fmtName := importName(file.AST, "fmt")
			errName := importName(file.AST, "errors")
			for _, decl := range file.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				root, reached := via[fd.Name.Name]
				if !reached {
					continue
				}
				out = append(out, checkHotBody(t, fd, root, fmtName, errName)...)
			}
		}
	}
	return out
}

// hotVia computes pkg's hot-reach attribution: for every function name
// reachable from a //popcornvet:hotpath root, the root that reaches it.
// Returns nil when the package declares no hot roots. Shared by the
// hotalloc analyzer and the escape-baseline gate (escapes.go), so both see
// the same definition of "hot".
func hotVia(ci *callIndex, pkg *Package) map[string]string {
	decls := ci.decls[pkg.Name]
	if len(decls) == 0 {
		return nil
	}
	hot := make(map[string]bool)
	cold := make(map[string]bool)
	for _, fds := range decls {
		for _, fd := range fds {
			if docMarked(fd, hotMarker) {
				hot[fd.Name.Name] = true
			}
			if docMarked(fd, coldMarker) {
				cold[fd.Name.Name] = true
			}
		}
	}
	if len(hot) == 0 {
		return nil
	}
	return hotReach(decls, hot, cold)
}

// hotReach closes the hot root set over package-local calls, refusing to
// cross into //popcornvet:coldpath functions. It returns, for every
// reachable function name, the root whose closure first pulled it in (BFS
// from roots in sorted order, so the attribution is deterministic).
func hotReach(decls map[string][]*ast.FuncDecl, hot, cold map[string]bool) map[string]string {
	via := make(map[string]string)
	var queue []string
	enqueue := func(name, root string) {
		if cold[name] {
			return
		}
		if _, exists := decls[name]; !exists {
			return
		}
		if _, seen := via[name]; seen {
			return
		}
		via[name] = root
		queue = append(queue, name)
	}
	roots := make([]string, 0, len(hot))
	for name := range hot {
		roots = append(roots, name)
	}
	sort.Strings(roots)
	for _, r := range roots {
		enqueue(r, r)
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		root := via[name]
		for _, fd := range decls[name] {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if cn := calleeName(call); cn != "" {
					enqueue(cn, root)
				}
				// A function passed as a value (callback, method value) is
				// assumed called on the same path.
				for _, arg := range call.Args {
					switch a := arg.(type) {
					case *ast.Ident:
						enqueue(a.Name, root)
					case *ast.SelectorExpr:
						enqueue(a.Sel.Name, root)
					}
				}
				return true
			})
		}
	}
	return via
}

// checkHotBody walks one hot-reachable body and flags every allocating
// construct, attributing it to the hot root that reaches the function.
func checkHotBody(t *Tree, fd *ast.FuncDecl, root, fmtName, errName string) []Finding {
	var out []Finding
	flag := func(pos token.Pos, what string) {
		var where string
		if fd.Name.Name == root {
			where = fmt.Sprintf("on //popcornvet:hotpath function %s", fd.Name.Name)
		} else {
			where = fmt.Sprintf("in %s, reached from //popcornvet:hotpath root %s", fd.Name.Name, root)
		}
		out = append(out, Finding{
			Pos:  t.Fset.Position(pos),
			Rule: "hotalloc",
			Message: fmt.Sprintf("%s %s; hot paths must not allocate per event — pool or preallocate, "+
				"mark the callee //popcornvet:coldpath if it is not hot, or justify with "+
				"//popcornvet:allow hotalloc <reason>", what, where),
		})
	}
	// skipLit marks composite literals already reported as part of an
	// enclosing &T{...} so they are not flagged twice.
	skipLit := make(map[ast.Node]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			switch fn := node.Fun.(type) {
			case *ast.Ident:
				switch fn.Name {
				case "make":
					flag(node.Pos(), "make allocates")
				case "new":
					flag(node.Pos(), "new allocates")
				case "append":
					flag(node.Pos(), "append may grow its backing array")
				case "string":
					if len(node.Args) == 1 {
						flag(node.Pos(), "conversion to string copies to the heap")
					}
				case "any":
					if len(node.Args) == 1 {
						flag(node.Pos(), "conversion to interface boxes its operand")
					}
				}
			case *ast.SelectorExpr:
				if id, ok := fn.X.(*ast.Ident); ok {
					if (fmtName != "" && id.Name == fmtName) || (errName != "" && id.Name == errName) {
						flag(node.Pos(), id.Name+"."+fn.Sel.Name+" allocates its result and boxes its arguments")
					}
				}
			case *ast.ArrayType:
				flag(node.Pos(), "conversion to slice copies to the heap")
			case *ast.InterfaceType:
				flag(node.Pos(), "conversion to interface boxes its operand")
			}
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if cl, ok := node.X.(*ast.CompositeLit); ok {
					skipLit[cl] = true
					flag(node.Pos(), "&composite-literal allocates")
				}
			}
		case *ast.CompositeLit:
			if skipLit[node] {
				break
			}
			switch ty := node.Type.(type) {
			case *ast.ArrayType:
				if ty.Len == nil {
					flag(node.Pos(), "slice literal allocates its backing array")
				}
			case *ast.MapType:
				flag(node.Pos(), "map literal allocates")
			}
		case *ast.BinaryExpr:
			// Exactly one literal side: "a"+"b" folds to a constant, and
			// with no literal at all the operands' types are unknown to a
			// package-local resolver (could be integers) — both skipped.
			if node.Op == token.ADD && isStringLit(node.X) != isStringLit(node.Y) {
				flag(node.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if node.Tok == token.ADD_ASSIGN && len(node.Rhs) == 1 && isStringLit(node.Rhs[0]) {
				flag(node.Pos(), "string concatenation allocates")
			}
		case *ast.FuncLit:
			flag(node.Pos(), "function literal allocates a closure per evaluation")
		}
		return true
	})
	// Defer inside a loop cannot use the compiler's open-coded fast path:
	// each iteration heap-allocates a deferred frame. Deferred calls inside
	// a nested func literal belong to that literal's own frame, and the
	// literal itself was already flagged above.
	flagged := make(map[*ast.DeferStmt]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch loop := n.(type) {
		case *ast.ForStmt:
			body = loop.Body
		case *ast.RangeStmt:
			body = loop.Body
		default:
			return true
		}
		ast.Inspect(body, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			if d, ok := m.(*ast.DeferStmt); ok && !flagged[d] {
				flagged[d] = true
				flag(d.Pos(), "defer inside a loop allocates a frame per iteration")
			}
			return true
		})
		return true
	})
	return out
}

// isStringLit reports whether e is a string literal (possibly
// parenthesised).
func isStringLit(e ast.Expr) bool {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Kind == token.STRING
}

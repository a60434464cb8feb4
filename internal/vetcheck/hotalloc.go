package vetcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc enforces the zero-allocation contract on declared hot paths
// (DESIGN.md §12). A function whose doc comment carries the marker
//
//	//popcornvet:hotpath
//
// is a hot root: it runs once per simulated event or per message, so a
// single allocation in it multiplies by the event count and turns the
// benchmark tables into GC benchmarks. A function is hot when the call
// graph (reach.go) reaches it from a root without leaving the root's
// package and without entering a //popcornvet:coldpath function; a method
// value stored in a field and called later is reached from where it was
// named. In every hot body the analyzer flags each construct that
// allocates:
//
//   - make / new calls and address-of composite literals (&T{...});
//   - slice and map literals (their backing store is heap-allocated the
//     moment the value escapes, which a per-function check must assume);
//   - append, which reallocates the backing array whenever capacity runs
//     out — hot paths must recycle capacity (head-index rings, free lists)
//     or carry a written justification that growth is amortized;
//   - fmt.* and errors.* calls: the result is heap-allocated and the
//     variadic ...any parameters box every non-pointer argument;
//   - non-constant string concatenation, += on strings, and conversions
//     between string and byte or rune slices or into interfaces — each
//     copies or boxes;
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
// Each package annotates its own hot surface: the closure does not follow a
// call into another package. The escape-baseline gate (cmd/popcornvet
// -escapes, ESCAPES.json) covers the compiler's side of the same contract;
// the AllocsPerRun guards in each package pin the runtime result.
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

// hot returns the hot functions of the tree in source order, each with the
// //popcornvet:hotpath root whose closure first pulled it in. The hotalloc
// analyzer and the escape-baseline gate (escapes.go) share it, so both see
// the same definition of "hot".
func (t *Tree) hot() (nodes []*funcNode, root map[*funcNode]*funcNode) {
	g := t.calls()
	var all, roots []*funcNode
	for _, pkg := range t.Pkgs {
		pkg.funcs(func(_ *File, fd *ast.FuncDecl) {
			all = append(all, g.node(pkg, fd))
			if docMarked(fd, hotMarker) {
				roots = append(roots, g.node(pkg, fd))
			}
		})
	}
	root = g.closure(roots, func(from, to *funcNode) bool {
		return to.pkg == from.pkg && !docMarked(to.decl, coldMarker)
	})
	for _, n := range all {
		if root[n] != nil {
			nodes = append(nodes, n)
		}
	}
	return nodes, root
}

// Check implements Analyzer.
func (HotAlloc) Check(t *Tree) []Finding {
	var out []Finding
	nodes, root := t.hot()
	for _, n := range nodes {
		out = append(out, checkHotBody(t, n, root[n])...)
	}
	return out
}

// checkHotBody walks one hot body and flags every allocating construct,
// attributing it to the hot root that reaches the function.
func checkHotBody(t *Tree, n, root *funcNode) []Finding {
	var out []Finding
	info := n.pkg.info
	where := fmt.Sprintf("in %s, reached from //popcornvet:hotpath root %s", n.fn.Name(), root.fn.Name())
	if n == root {
		where = fmt.Sprintf("on //popcornvet:hotpath function %s", n.fn.Name())
	}
	flag := func(pos token.Pos, what string) {
		out = append(out, Finding{
			Pos:  t.Fset.Position(pos),
			Rule: "hotalloc",
			Message: fmt.Sprintf("%s %s; hot paths must not allocate per event — pool or preallocate, "+
				"mark the callee //popcornvet:coldpath if it is not hot, or justify with "+
				"//popcornvet:allow hotalloc <reason>", what, where),
		})
	}
	isString := func(e ast.Expr) bool {
		b, ok := info.TypeOf(e).Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	// skip marks nodes already reported as part of an enclosing one: the
	// literal of an &T{...}, the left operand of a longer concatenation.
	skip := make(map[ast.Node]bool)
	ast.Inspect(n.decl.Body, func(m ast.Node) bool {
		switch node := m.(type) {
		case *ast.CallExpr:
			if tv := info.Types[node.Fun]; tv.IsType() && len(node.Args) == 1 && info.Types[node].Value == nil {
				from, to := info.TypeOf(node.Args[0]).Underlying(), tv.Type.Underlying()
				_, toSlice := to.(*types.Slice)
				switch {
				case types.IsInterface(to) && !types.IsInterface(from):
					flag(node.Pos(), "conversion to interface boxes its operand")
				case isString(node) && !isString(node.Args[0]):
					flag(node.Pos(), "conversion to string copies to the heap")
				case toSlice && isString(node.Args[0]):
					flag(node.Pos(), "conversion to slice copies to the heap")
				}
				return true
			}
			id, _ := ast.Unparen(node.Fun).(*ast.Ident)
			if b, ok := info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "make", "new":
					flag(node.Pos(), b.Name()+" allocates")
				case "append":
					flag(node.Pos(), "append may grow its backing array")
				}
			}
			if fn := callee(info, node); fn != nil && (fromStd(fn, "fmt") || fromStd(fn, "errors")) {
				flag(node.Pos(), fn.Pkg().Name()+"."+fn.Name()+" allocates its result and boxes its arguments")
			}
		case *ast.UnaryExpr:
			if cl, ok := node.X.(*ast.CompositeLit); ok && node.Op == token.AND {
				skip[cl] = true
				flag(node.Pos(), "&composite-literal allocates")
			}
		case *ast.CompositeLit:
			switch info.TypeOf(node).Underlying().(type) {
			case *types.Slice:
				if !skip[node] {
					flag(node.Pos(), "slice literal allocates its backing array")
				}
			case *types.Map:
				if !skip[node] {
					flag(node.Pos(), "map literal allocates")
				}
			}
		case *ast.BinaryExpr:
			// A constant expression ("a"+"b") folds at compile time.
			if node.Op == token.ADD && isString(node) && info.Types[node].Value == nil && !skip[node] {
				flag(node.Pos(), "string concatenation allocates")
				for x, ok := node, true; ok; x, ok = ast.Unparen(x.X).(*ast.BinaryExpr) {
					skip[x] = true
				}
			}
		case *ast.AssignStmt:
			if node.Tok == token.ADD_ASSIGN && isString(node.Lhs[0]) {
				flag(node.Pos(), "string concatenation allocates")
			}
		case *ast.FuncLit:
			flag(node.Pos(), "function literal allocates a closure per evaluation")
		case *ast.ForStmt:
			flagLoopDefers(node.Body, skip, flag)
		case *ast.RangeStmt:
			flagLoopDefers(node.Body, skip, flag)
		}
		return true
	})
	return out
}

// flagLoopDefers reports each defer inside a loop body once. It cannot use
// the compiler's open-coded fast path: each iteration heap-allocates a
// deferred frame. Deferred calls inside a nested function literal belong to
// that literal's own frame, and the literal itself is already flagged.
func flagLoopDefers(body *ast.BlockStmt, seen map[ast.Node]bool, flag func(token.Pos, string)) {
	ast.Inspect(body, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if d, ok := m.(*ast.DeferStmt); ok && !seen[d] {
			seen[d] = true
			flag(d.Pos(), "defer inside a loop allocates a frame per iteration")
		}
		return true
	})
}

package vetcheck

import (
	"go/ast"
	"go/token"
	"strings"
)

// DetOrder flags nondeterministic ordering in event-visible code: the bug
// class where a run's *result* is right but its event or trace order
// differs between processes or runs, which breaks byte-identical replay.
// In every function reachable from a handler root (reach.go) of a kernel-side
// package, plus the whole export surface of the trace package, it reports:
//
//   - `range` over a map whose iteration order escapes: Go randomizes map
//     order per process, so any event, message, trace record or slice built
//     in loop order diverges run to run. Loops whose bodies are
//     order-insensitive (map-to-map copies, deletes, counter bumps) or that
//     only collect keys later passed to sort are exempt;
//   - `sort.Slice` with a single-key comparator on anything other than the
//     raw element values: equal keys leave distinct elements in
//     unspecified relative order. Add a tie-break, use sort.SliceStable, or
//     justify totality with an allow-directive;
//   - wall-clock and global-randomness reads (time.Now and friends, global
//     math/rand) in kernel-side packages the simtime analyzer does not
//     already police (simtime owns the sim-managed set; detorder extends
//     the rule to the rest of the event-reachable world, e.g. core and
//     trace).
//
// Map typing is resolved package-locally from declared types, struct
// fields, package vars and local inference; expressions it cannot resolve
// are not flagged (a lint gate under-approximates rather than cry wolf).
type DetOrder struct{}

// Name implements Analyzer.
func (DetOrder) Name() string { return "detorder" }

// detOrderScope reports whether a package's handler-reachable code is
// policed for deterministic ordering.
func detOrderScope(pkgName string) bool {
	return kernelSide(pkgName) || pkgName == "trace"
}

// Check implements Analyzer.
func (DetOrder) Check(t *Tree) []Finding {
	ci := t.calls()
	var out []Finding
	for _, pkg := range t.Pkgs {
		if !detOrderScope(pkg.Name) {
			continue
		}
		res := newTypeRes(pkg)
		roots := handlerRoots(pkg)
		for _, rb := range ci.reachableBodies(pkg, roots) {
			out = append(out, checkDetOrder(t, pkg, res, rb)...)
		}
	}
	return out
}

func checkDetOrder(t *Tree, pkg *Package, res *typeRes, rb reachableBody) []Finding {
	var out []Finding
	flag := func(pos token.Pos, msg string) {
		out = append(out, Finding{Pos: t.Fset.Position(pos), Rule: "detorder", Message: msg})
	}
	locals := res.localTypes(rb)
	simtimeCovered := Managed(pkg.Name)
	var file *File
	for _, f := range pkg.Files {
		if f.AST.Pos() <= rb.body.Pos() && rb.body.Pos() <= f.AST.End() {
			file = f
			break
		}
	}
	var timeName, randName string
	if file != nil && !simtimeCovered {
		timeName = importName(file.AST, "time")
		randName = importName(file.AST, "math/rand")
	}
	ast.Inspect(rb.body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.RangeStmt:
			if res.isMap(res.typeOf(node.X, locals)) && !mapRangeExempt(rb.body, node) {
				flag(node.X.Pos(), "range over a map in event-visible code: iteration order is "+
					"randomized per process, so anything ordered by this loop (events, sends, "+
					"trace records, appended slices) diverges between runs — iterate sorted keys, "+
					"or justify order-insensitivity")
			}
		case *ast.CallExpr:
			if sel, ok := node.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok {
					if id.Name == "sort" && sel.Sel.Name == "Slice" && len(node.Args) == 2 {
						if lit, ok := node.Args[1].(*ast.FuncLit); ok && singleKeyComparator(lit) {
							flag(node.Pos(), "sort.Slice with a single-key comparator: elements with "+
								"equal keys land in unspecified order — add a tie-break, use "+
								"sort.SliceStable, or justify that the key is unique")
						}
					}
					if timeName != "" && id.Name == timeName && forbiddenTimeFuncs[sel.Sel.Name] {
						flag(node.Pos(), "time."+sel.Sel.Name+" on an event-reachable path outside the "+
							"sim-managed set: wall-clock reads differ per run; thread virtual time "+
							"from the engine instead")
					}
					if randName != "" && id.Name == randName && !allowedRandNames[sel.Sel.Name] {
						flag(node.Pos(), "global math/rand."+sel.Sel.Name+" on an event-reachable path: "+
							"draws from the process-global source are not replayable; use the "+
							"engine's seeded RNG")
					}
				}
			}
		}
		return true
	})
	return out
}

// mapRangeExempt reports whether a map-range loop cannot leak iteration
// order: every statement in its body is order-insensitive, where appends to
// a local slice count as insensitive only if the surrounding body sorts
// something after the loop (the collect-keys-then-sort idiom).
func mapRangeExempt(enclosing ast.Node, rng *ast.RangeStmt) bool {
	appends := false
	for _, s := range rng.Body.List {
		switch insensitiveKind(s) {
		case stmtInsensitive:
		case stmtAppend:
			appends = true
		default:
			return false
		}
	}
	if !appends {
		return true
	}
	return sortsAfter(enclosing, rng.End())
}

type stmtClass int

const (
	stmtSensitive stmtClass = iota
	stmtInsensitive
	stmtAppend
)

// insensitiveKind classifies one statement of a map-range body.
func insensitiveKind(s ast.Stmt) stmtClass {
	switch st := s.(type) {
	case *ast.IncDecStmt:
		return stmtInsensitive
	case *ast.BranchStmt:
		if st.Tok == token.CONTINUE || st.Tok == token.BREAK {
			return stmtInsensitive
		}
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
				return stmtInsensitive
			}
		}
	case *ast.AssignStmt:
		// xs = append(xs, ...): the collect idiom, insensitive only when
		// followed by a sort (caller checks).
		if st.Tok == token.ASSIGN && len(st.Rhs) == 1 {
			if call, ok := st.Rhs[0].(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
					return stmtAppend
				}
			}
		}
		switch st.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			// Commutative accumulation (the += string-concat hole is
			// accepted: this is a linter, not a prover).
			if exprsPure(st.Rhs) {
				return stmtInsensitive
			}
		case token.ASSIGN:
			// Writes keyed by the iteration variable (map-to-map copy,
			// slice slot fill) are insensitive; plain variable writes keep
			// only the last iteration's value and are not.
			allIndexed := true
			for _, lhs := range st.Lhs {
				if _, ok := lhs.(*ast.IndexExpr); !ok {
					if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
						allIndexed = false
					}
				}
			}
			if allIndexed && exprsPure(st.Rhs) {
				return stmtInsensitive
			}
		case token.DEFINE:
			if exprsPure(st.Rhs) {
				return stmtInsensitive
			}
		}
	case *ast.IfStmt:
		if st.Else != nil || st.Init != nil || !exprsPure([]ast.Expr{st.Cond}) {
			return stmtSensitive
		}
		kind := stmtInsensitive
		for _, inner := range st.Body.List {
			switch insensitiveKind(inner) {
			case stmtInsensitive:
			case stmtAppend:
				kind = stmtAppend // guarded collect: caller still demands a sort after
			default:
				return stmtSensitive
			}
		}
		return kind
	}
	return stmtSensitive
}

// exprsPure reports whether the expressions contain no calls (conversions
// included — cheap and safe to treat as impure).
func exprsPure(exprs []ast.Expr) bool {
	pure := true
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.CallExpr); ok {
				pure = false
				return false
			}
			return true
		})
	}
	return pure
}

// sortsAfter reports whether the enclosing body calls sort.<anything>,
// slices.Sort<anything> — or a local sort helper named sort*/Sort* (sortKeys,
// sortTokens) — after the given position.
func sortsAfter(enclosing ast.Node, after token.Pos) bool {
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= after {
			return true
		}
		switch fn := call.Fun.(type) {
		case *ast.SelectorExpr:
			if id, ok := fn.X.(*ast.Ident); ok && (id.Name == "sort" || id.Name == "slices" && strings.HasPrefix(fn.Sel.Name, "Sort")) {
				found = true
			}
		case *ast.Ident:
			if strings.HasPrefix(fn.Name, "sort") || strings.HasPrefix(fn.Name, "Sort") {
				found = true
			}
		}
		return !found
	})
	return found
}

// singleKeyComparator reports whether a sort.Slice less-func compares one
// derived key with no tie-break: a single `return X < Y` (or >) where the
// operands are not the raw indexed elements. `a[i] < a[j]` is total on the
// value itself; `a[i].F < a[j].F` is not.
func singleKeyComparator(lit *ast.FuncLit) bool {
	if len(lit.Body.List) != 1 {
		return false // multi-statement comparators are assumed to tie-break
	}
	ret, ok := lit.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	bin, ok := ret.Results[0].(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch bin.Op {
	case token.LSS, token.GTR:
	default:
		return false // ||-chains and friends carry their own tie-break
	}
	_, xIdx := bin.X.(*ast.IndexExpr)
	_, yIdx := bin.Y.(*ast.IndexExpr)
	if xIdx && yIdx {
		return false // comparing raw element values: total
	}
	return true
}

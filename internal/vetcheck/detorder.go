package vetcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetOrder flags nondeterministic ordering in event-visible code: the bug
// class where a run's *result* is right but its event or trace order
// differs between processes or runs, which breaks byte-identical replay.
// In every event-context body (Package.eventBodies) of the kernel-side
// packages and of the trace package, it reports:
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
//     math/rand) in packages the simtime analyzer does not already police
//     (simtime owns the sim-managed set; detorder extends the rule to the
//     rest of the event-visible world, core and trace).
//
// Whether the ranged expression is a map is the type checker's answer: a
// field, a call result (pt.All()) and a named map type from another package
// are all the same question.
type DetOrder struct{}

// Name implements Analyzer.
func (DetOrder) Name() string { return "detorder" }

// Check implements Analyzer.
func (DetOrder) Check(t *Tree) []Finding {
	var out []Finding
	for _, pkg := range t.Pkgs {
		if !kernelSide(pkg.Name) && pkg.Name != "trace" {
			continue
		}
		flag := func(pos token.Pos, msg string) {
			out = append(out, Finding{Pos: t.Fset.Position(pos), Rule: "detorder", Message: msg})
		}
		info := pkg.info
		pkg.eventBodies(func(body *ast.BlockStmt) {
			ast.Inspect(body, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.RangeStmt:
					if _, isMap := info.TypeOf(node.X).Underlying().(*types.Map); isMap && !mapRangeExempt(info, body, node) {
						flag(node.X.Pos(), "range over a map in event-visible code: iteration order is "+
							"randomized per process, so anything ordered by this loop (events, sends, "+
							"trace records, appended slices) diverges between runs — iterate sorted keys, "+
							"or justify order-insensitivity")
					}
				case *ast.CallExpr:
					fn := callee(info, node)
					if fn != nil && fromStd(fn, "sort") && fn.Name() == "Slice" {
						if lit, ok := node.Args[1].(*ast.FuncLit); ok && singleKeyComparator(lit) {
							flag(node.Pos(), "sort.Slice with a single-key comparator: elements with "+
								"equal keys land in unspecified order — add a tie-break, use "+
								"sort.SliceStable, or justify that the key is unique")
						}
					}
				case *ast.SelectorExpr:
					obj := info.Uses[node.Sel]
					switch lib, _ := nondeterministic(obj); {
					case pkg.Managed: // simtime's
					case lib == "time":
						flag(node.Pos(), "time."+obj.Name()+" on an event-reachable path outside the "+
							"sim-managed set: wall-clock reads differ per run; thread virtual time "+
							"from the engine instead")
					case lib == "math/rand":
						flag(node.Pos(), "global math/rand."+obj.Name()+" on an event-reachable path: "+
							"draws from the process-global source are not replayable; use the "+
							"engine's seeded RNG")
					}
				}
				return true
			})
		})
	}
	return out
}

// mapRangeExempt reports whether a map-range loop cannot leak iteration
// order: every statement in its body is order-insensitive, where appends to
// a local slice count as insensitive only if the surrounding body sorts
// something after the loop (the collect-keys-then-sort idiom).
func mapRangeExempt(info *types.Info, enclosing ast.Node, rng *ast.RangeStmt) bool {
	kind := blockKind(info, rng.Body.List)
	return kind == stmtInsensitive || kind == stmtAppend && sortsAfter(info, enclosing, rng.End())
}

type stmtClass int

const (
	stmtSensitive stmtClass = iota
	stmtInsensitive
	stmtAppend // insensitive if a sort follows the loop
)

// blockKind classifies a statement list: sensitive if any statement is,
// else append if any statement collects, else insensitive.
func blockKind(info *types.Info, list []ast.Stmt) stmtClass {
	kind := stmtInsensitive
	for _, s := range list {
		switch insensitiveKind(info, s) {
		case stmtSensitive:
			return stmtSensitive
		case stmtAppend:
			kind = stmtAppend
		}
	}
	return kind
}

// insensitiveKind classifies one statement of a map-range body.
func insensitiveKind(info *types.Info, s ast.Stmt) stmtClass {
	switch st := s.(type) {
	case *ast.IncDecStmt:
		return stmtInsensitive
	case *ast.BranchStmt:
		if st.Tok == token.CONTINUE || st.Tok == token.BREAK {
			return stmtInsensitive
		}
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok && isBuiltin(info, call, "delete") {
			return stmtInsensitive
		}
	case *ast.AssignStmt:
		switch st.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			// Commutative accumulation (the += string-concat hole is
			// accepted: this is a linter, not a prover).
			if exprsPure(info, st.Rhs) {
				return stmtInsensitive
			}
		case token.ASSIGN:
			// xs = append(xs, ...): the collect idiom, insensitive only when
			// followed by a sort (caller checks).
			if call, ok := st.Rhs[0].(*ast.CallExpr); ok && len(st.Rhs) == 1 && isBuiltin(info, call, "append") {
				return stmtAppend
			}
			// Writes keyed by the iteration variable (map-to-map copy,
			// slice slot fill) are insensitive; plain variable writes keep
			// only the last iteration's value and are not.
			for _, lhs := range st.Lhs {
				if _, ok := lhs.(*ast.IndexExpr); !ok {
					if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
						return stmtSensitive
					}
				}
			}
			if exprsPure(info, st.Rhs) {
				return stmtInsensitive
			}
		case token.DEFINE:
			if exprsPure(info, st.Rhs) {
				return stmtInsensitive
			}
		}
	case *ast.IfStmt:
		if st.Else == nil && st.Init == nil && exprsPure(info, []ast.Expr{st.Cond}) {
			return blockKind(info, st.Body.List) // a guarded collect still demands a sort after
		}
	}
	return stmtSensitive
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// exprsPure reports whether the expressions call nothing: a type conversion
// is syntactically a call but runs no code.
func exprsPure(info *types.Info, exprs []ast.Expr) bool {
	pure := true
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && !info.Types[call.Fun].IsType() {
				pure = false
			}
			return pure
		})
	}
	return pure
}

// sortsAfter reports whether the enclosing body calls sort.<anything> or a
// function named sort*/Sort* (slices.Sort, slices.SortFunc, an in-module
// sortKeys helper) after the given position.
func sortsAfter(info *types.Info, enclosing ast.Node, after token.Pos) bool {
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= after {
			return true
		}
		fn := callee(info, call)
		found = found || fn != nil && (fromStd(fn, "sort") || strings.HasPrefix(fn.Name(), "sort") || strings.HasPrefix(fn.Name(), "Sort"))
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
	if !ok || bin.Op != token.LSS && bin.Op != token.GTR {
		return false // ||-chains and friends carry their own tie-break
	}
	_, xIdx := bin.X.(*ast.IndexExpr)
	_, yIdx := bin.Y.(*ast.IndexExpr)
	return !(xIdx && yIdx) // comparing raw element values is total
}

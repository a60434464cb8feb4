package vetcheck

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// MsgProto cross-checks the inter-kernel message protocol where only the
// source can: send sites and discarded RPC errors. Popcorn-style kernels
// share no state and interact only through these typed messages, so the
// wiring is mechanically checkable:
//
//   - every declared Type must be sent somewhere (a Message composite
//     literal with Type: TypeX, an assignment m.Type = TypeX, or a
//     NewWith(ep, TypeX, ...) call) — otherwise it is dead protocol surface;
//   - Endpoint.Call/CallEach and CallFor results must not discard the
//     error: a lost reply is how inter-kernel protocols wedge silently.
//
// A use names an enum member by its constant value, so an alias or a
// parenthesised or converted constant still counts. Exemptions are per-type
// allow-directives at the declaration site. The rest of the wiring is pinned
// at run time: msg's TestTypeStringExhaustive requires a String() name for
// every type, and kernel's TestClusterHandlesEveryMessageType requires a
// handler on every booted kernel, with reasoned exemptions.
type MsgProto struct{}

// Name implements Analyzer.
func (MsgProto) Name() string { return "msgproto" }

var (
	msgType     = declare("msg", "", "Type")
	msgMessage  = declare("msg", "", "Message")
	msgTypeOf   = declare("msg", "Message", "Type")
	msgNewWith  = declare("msg", "", "NewWith")
	msgCall     = fabricSends[0]
	msgCallEach = fabricSends[1]
	msgCallFor  = declare("msg", "", "CallFor")
)

// Check implements Analyzer.
func (MsgProto) Check(t *Tree) []Finding {
	var out []Finding
	flag := func(n interface{ Pos() token.Pos }, msg string) {
		out = append(out, Finding{Pos: t.Fset.Position(n.Pos()), Rule: "msgproto", Message: msg})
	}
	// Enum members seen in a send.
	sent := map[int64]bool{}
	for _, pkg := range t.Pkgs {
		info := pkg.info
		// markSent records e as sent when it is a msg.Type constant.
		markSent := func(e ast.Expr) {
			if tv := info.Types[e]; tv.Value != nil && msgType.isType(tv.Type) {
				if v, exact := constant.Int64Val(tv.Value); exact {
					sent[v] = true
				}
			}
		}
		for _, file := range pkg.Files {
			ast.Inspect(file.AST, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.CallExpr:
					if msgNewWith.isFunc(callee(info, node)) {
						// The Type is whichever argument has that type, so
						// the rule follows the parameter if it moves.
						for _, arg := range node.Args {
							markSent(arg)
						}
					}
				case *ast.CompositeLit:
					if !msgMessage.isType(info.TypeOf(node)) {
						return true
					}
					for _, el := range node.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Type" {
								markSent(kv.Value)
							}
						}
					}
				case *ast.ExprStmt:
					if call, ok := node.X.(*ast.CallExpr); ok && isRPC(info, call) {
						flag(call, callee(info, call).Name()+" reply and error discarded; a lost reply is how "+
							"inter-kernel protocols wedge silently")
					}
				case *ast.AssignStmt:
					for i, lhs := range node.Lhs {
						if len(node.Rhs) == len(node.Lhs) && msgTypeOf.isField(info, lhs) {
							markSent(node.Rhs[i])
						}
					}
					if call, ok := node.Rhs[0].(*ast.CallExpr); ok && len(node.Rhs) == 1 && isRPC(info, call) {
						if id, ok := node.Lhs[len(node.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
							flag(call, callee(info, call).Name()+" error discarded; handle or propagate the RPC failure")
						}
					}
				}
				return true
			})
		}
	}

	// The enum: every exported constant of type msg.Type but the zero
	// sentinel TypeInvalid, in declaration order.
	var declared []*types.Const
	for _, pkg := range t.Pkgs {
		if pkg.Name != msgType.pkg {
			continue
		}
		scope := pkg.tpkg.Scope()
		for _, name := range scope.Names() {
			if c, ok := scope.Lookup(name).(*types.Const); ok && c.Exported() && name != "TypeInvalid" && msgType.isType(c.Type()) {
				declared = append(declared, c)
			}
		}
	}
	sort.Slice(declared, func(i, j int) bool { return declared[i].Pos() < declared[j].Pos() })
	for _, c := range declared {
		if v, _ := constant.Int64Val(c.Val()); !sent[v] {
			flag(c, c.Name()+" is never sent: dead protocol surface")
		}
	}
	return out
}

// isRPC reports whether call invokes msg.Endpoint.Call, CallEach or
// msg.CallFor.
func isRPC(info *types.Info, call *ast.CallExpr) bool {
	fn := callee(info, call)
	return msgCall.isFunc(fn) || msgCallEach.isFunc(fn) || msgCallFor.isFunc(fn)
}

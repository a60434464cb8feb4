package vetcheck

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// MsgProto cross-checks the inter-kernel message protocol, whose messages are
// each declared once as a msg.Kind:
//
//   - a Type two kinds declare is flagged: a pool slot, one per (Type, leg),
//     carries the one payload type its kind declares;
//   - a kind never sent (no method call on it but Handle), and a Type neither
//     a sent kind's nor named by a Message literal, is dead protocol surface;
//   - Endpoint.Call/CallEach and Kind.Call results must keep the error.
//
// Members are matched by constant value, so an alias counts. Exemptions are
// per-type allow-directives at the declaration site.
type MsgProto struct{}

// Name implements Analyzer.
func (MsgProto) Name() string { return "msgproto" }

var (
	msgType     = declare("msg", "", "Type")
	msgMessage  = declare("msg", "", "Message")
	msgKind     = declare("msg", "", "Kind")
	msgCall     = fabricSends[0]
	msgCallEach = fabricSends[1]
	msgKindCall = declare("msg", "Kind", "Call")
)

// Check implements Analyzer.
func (MsgProto) Check(t *Tree) []Finding {
	var out []Finding
	flag := func(n interface{ Pos() token.Pos }, msg string) {
		out = append(out, Finding{Pos: t.Fset.Position(n.Pos()), Rule: "msgproto", Message: msg})
	}
	sent, declaredBy := map[int64]bool{}, map[int64]token.Pos{} // by Type: sent, its first kind
	kindType, kindSent := map[types.Object]int64{}, map[types.Object]bool{}
	for _, pkg := range t.Pkgs {
		info := pkg.info
		// typeValue returns e's value when it is a msg.Type constant, else 0.
		typeValue := func(e ast.Expr) int64 {
			if tv := info.Types[e]; tv.Value != nil && msgType.isType(tv.Type) {
				v, _ := constant.Int64Val(tv.Value)
				return v
			}
			return 0
		}
		for _, file := range pkg.Files {
			ast.Inspect(file.AST, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.ValueSpec:
					for i, v := range node.Values {
						if lit, ok := ast.Unparen(v).(*ast.CompositeLit); ok && msgKind.isType(info.TypeOf(lit)) {
							kindType[info.Defs[node.Names[i]]] = typeValue(typeKey(lit))
						}
					}
				case *ast.CallExpr:
					if sel, ok := ast.Unparen(node.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name != "Handle" {
						if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
							kindSent[info.Uses[id]] = true
						}
					}
				case *ast.CompositeLit:
					if msgMessage.isType(info.TypeOf(node)) {
						sent[typeValue(typeKey(node))] = true
					} else if v := typeValue(typeKey(node)); v != 0 && msgKind.isType(info.TypeOf(node)) {
						if first, dup := declaredBy[v]; dup {
							flag(node, "a second kind declares the Type of "+t.Fset.Position(first).String())
						} else {
							declaredBy[v] = node.Pos()
						}
					}
				case *ast.ExprStmt:
					if call, ok := node.X.(*ast.CallExpr); ok && isRPC(info, call) {
						flag(call, callee(info, call).Name()+" reply and error discarded; a lost reply is how inter-kernel protocols wedge silently")
					}
				case *ast.AssignStmt:
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
	for obj, v := range kindType { // Run sorts the findings
		if sent[v] = sent[v] || kindSent[obj]; !kindSent[obj] {
			flag(obj, obj.Name()+" is never sent: dead protocol surface")
		}
	}
	// The enum: every exported msg.Type constant but the zero sentinel.
	for _, pkg := range t.Pkgs {
		for _, name := range pkg.tpkg.Scope().Names() {
			c, ok := pkg.tpkg.Scope().Lookup(name).(*types.Const)
			if ok && pkg.Name == msgType.pkg && c.Exported() && name != "TypeInvalid" && msgType.isType(c.Type()) {
				if v, _ := constant.Int64Val(c.Val()); !sent[v] {
					flag(c, name+" is never sent: dead protocol surface")
				}
			}
		}
	}
	return out
}

// typeKey returns the value of lit's Type: element, or nil.
func typeKey(lit *ast.CompositeLit) ast.Expr {
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Type" {
				return kv.Value
			}
		}
	}
	return nil
}

// isRPC reports whether call invokes msg.Endpoint.Call, CallEach or Kind.Call.
func isRPC(info *types.Info, call *ast.CallExpr) bool {
	fn := callee(info, call)
	return msgCall.isFunc(fn) || msgCallEach.isFunc(fn) || msgKindCall.isFunc(fn)
}

package vetcheck

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// MsgProto cross-checks the inter-kernel message protocol: the msg.Type
// enum against its String() names, registered handlers and send sites, plus
// RPC call sites that discard the error. Popcorn-style kernels share no
// state and interact only through these typed messages, so the wiring is
// mechanically checkable:
//
//   - every declared Type must be a key of the typeNames map (String()
//     coverage);
//   - every declared Type must have at least one Endpoint.Handle(TypeX, ...)
//     registration — a type nobody can receive is either dead or a latent
//     "no handler" panic;
//   - every declared Type must be sent somewhere (a Message composite
//     literal with Type: TypeX, or a NewWith(TypeX, ...) call) — otherwise it
//     is dead protocol surface;
//   - Endpoint.Call/CallEach results must not discard the error: a lost
//     reply is how inter-kernel protocols wedge silently.
//
// A use names an enum member by its constant value, so an alias or a
// parenthesised or converted constant still counts. Exemptions are per-type
// allow-directives at the declaration site.
type MsgProto struct{}

// Name implements Analyzer.
func (MsgProto) Name() string { return "msgproto" }

var (
	msgType     = declare("msg", "", "Type")
	msgMessage  = declare("msg", "", "Message")
	msgNames    = declare("msg", "", "typeNames")
	msgNewWith  = declare("msg", "", "NewWith")
	msgHandle   = declare("msg", "Endpoint", "Handle")
	msgCall     = fabricSends[0]
	msgCallEach = fabricSends[1]
)

// Check implements Analyzer.
func (MsgProto) Check(t *Tree) []Finding {
	var out []Finding
	flag := func(n interface{ Pos() token.Pos }, msg string) {
		out = append(out, Finding{Pos: t.Fset.Position(n.Pos()), Rule: "msgproto", Message: msg})
	}
	// Enum members seen as a typeNames key, a Handle registration, a send.
	named, handled, sent := map[int64]bool{}, map[int64]bool{}, map[int64]bool{}
	for _, pkg := range t.Pkgs {
		info := pkg.info
		// mark records e in set when it is a msg.Type constant.
		mark := func(set map[int64]bool, e ast.Expr) {
			if tv := info.Types[e]; tv.Value != nil && msgType.isType(tv.Type) {
				if v, exact := constant.Int64Val(tv.Value); exact {
					set[v] = true
				}
			}
		}
		for _, file := range pkg.Files {
			ast.Inspect(file.AST, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.ValueSpec:
					if len(node.Names) != 1 || len(node.Values) != 1 || !msgNames.is(info.Defs[node.Names[0]], nil) {
						return true
					}
					if cl, ok := node.Values[0].(*ast.CompositeLit); ok {
						for _, el := range cl.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								mark(named, kv.Key)
							}
						}
					}
				case *ast.CallExpr:
					switch fn := callee(info, node); {
					case msgHandle.isFunc(fn):
						mark(handled, node.Args[0])
					case msgNewWith.isFunc(fn):
						mark(sent, node.Args[0])
					}
				case *ast.CompositeLit:
					if !msgMessage.isType(info.TypeOf(node)) {
						return true
					}
					for _, el := range node.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Type" {
								mark(sent, kv.Value)
							}
						}
					}
				case *ast.ExprStmt:
					if call, ok := node.X.(*ast.CallExpr); ok && isRPC(info, call) {
						flag(call, callee(info, call).Name()+" reply and error discarded; a lost reply is how "+
							"inter-kernel protocols wedge silently")
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
		v, _ := constant.Int64Val(c.Val())
		if !named[v] {
			flag(c, c.Name()+" has no entry in typeNames: its String() falls back to a "+
				"numeric placeholder in every trace and error")
		}
		if !handled[v] {
			flag(c, c.Name()+" has no Handle registration anywhere: receiving it would "+
				"fail the run")
		}
		if !sent[v] {
			flag(c, c.Name()+" is never sent: dead protocol surface")
		}
	}
	return out
}

// isRPC reports whether call invokes msg.Endpoint.Call or CallEach.
func isRPC(info *types.Info, call *ast.CallExpr) bool {
	fn := callee(info, call)
	return msgCall.isFunc(fn) || msgCallEach.isFunc(fn)
}

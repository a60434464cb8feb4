package vetcheck

import (
	"go/ast"
	"go/token"
	"strings"
)

// MsgProto cross-checks the inter-kernel message protocol: the msg.Type
// enum against its String() names, registered handlers and send sites, plus
// RPC call sites that discard the error. Popcorn-style kernels share no
// state and interact only through these typed messages, so the wiring is
// mechanically checkable:
//
//   - every declared Type must appear in the typeNames map (String()
//     coverage);
//   - every declared Type must have at least one Handle(TypeX, ...)
//     registration in non-test code — a type nobody can receive is either
//     dead or a latent "no handler" panic;
//   - every declared Type must be sent somewhere (a Message composite
//     literal with Type: TypeX, or a NewWith(TypeX, ...) call) — otherwise it
//     is dead protocol surface;
//   - Call/CallEach results must not discard the error: a lost reply is how
//     inter-kernel protocols wedge silently.
//
// Exemptions are per-type allow-directives at the declaration site.
type MsgProto struct{}

// Name implements Analyzer.
func (MsgProto) Name() string { return "msgproto" }

// declaredType is one msg.Type constant.
type declaredType struct {
	name string
	pos  token.Pos
}

// Check implements Analyzer.
func (MsgProto) Check(t *Tree) []Finding {
	msgPkg := findPackage(t, "msg")
	if msgPkg == nil {
		return nil
	}
	declared := declaredMsgTypes(msgPkg)
	if len(declared) == 0 {
		return nil
	}
	stringNames := typeNameMapKeys(msgPkg)
	handled := make(map[string]bool)
	sent := make(map[string]bool)
	var out []Finding

	for _, pkg := range t.Pkgs {
		for _, file := range pkg.Files {
			if file.Test {
				continue
			}
			ast.Inspect(file.AST, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.CallExpr:
					if name := calleeName(node); (name == "Handle" || name == "NewWith") && len(node.Args) >= 1 {
						if tn, ok := typeConstName(node.Args[0]); ok {
							if name == "Handle" {
								handled[tn] = true
							} else {
								sent[tn] = true
							}
						}
					}
				case *ast.CompositeLit:
					if !isMessageLit(node) {
						return true
					}
					for _, el := range node.Elts {
						kv, ok := el.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Type" {
							if tn, ok := typeConstName(kv.Value); ok {
								sent[tn] = true
							}
						}
					}
				}
				return true
			})
			out = append(out, checkCallSites(t, file)...)
		}
	}

	for _, d := range declared {
		pos := t.Fset.Position(d.pos)
		if !stringNames[d.name] {
			out = append(out, Finding{
				Pos:  pos,
				Rule: "msgproto",
				Message: d.name + " has no entry in typeNames: its String() falls back to a " +
					"numeric placeholder in every trace and error",
			})
		}
		if !handled[d.name] {
			out = append(out, Finding{
				Pos:  pos,
				Rule: "msgproto",
				Message: d.name + " has no Handle registration anywhere: receiving it would " +
					"fail the run",
			})
		}
		if !sent[d.name] {
			out = append(out, Finding{
				Pos:     pos,
				Rule:    "msgproto",
				Message: d.name + " is never sent: dead protocol surface",
			})
		}
	}
	return out
}

// checkCallSites flags RPC invocations whose error (or whole result) is
// discarded.
func checkCallSites(t *Tree, file *File) []Finding {
	var out []Finding
	isRPC := func(call *ast.CallExpr) bool {
		name := calleeName(call)
		if name != "Call" && name != "CallEach" {
			return false
		}
		// Require a method call to avoid flagging unrelated free functions.
		_, isSel := call.Fun.(*ast.SelectorExpr)
		return isSel
	}
	ast.Inspect(file.AST, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.ExprStmt:
			if call, ok := node.X.(*ast.CallExpr); ok && isRPC(call) {
				out = append(out, Finding{
					Pos:  t.Fset.Position(call.Pos()),
					Rule: "msgproto",
					Message: calleeName(call) + " reply and error discarded; a lost reply is how " +
						"inter-kernel protocols wedge silently",
				})
			}
		case *ast.AssignStmt:
			if len(node.Rhs) != 1 {
				return true
			}
			call, ok := node.Rhs[0].(*ast.CallExpr)
			if !ok || !isRPC(call) || len(node.Lhs) == 0 {
				return true
			}
			if id, ok := node.Lhs[len(node.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
				out = append(out, Finding{
					Pos:     t.Fset.Position(call.Pos()),
					Rule:    "msgproto",
					Message: calleeName(call) + " error discarded; handle or propagate the RPC failure",
				})
			}
		}
		return true
	})
	return out
}

// findPackage returns the first package with the given name.
func findPackage(t *Tree, name string) *Package {
	for _, pkg := range t.Pkgs {
		if pkg.Name == name {
			return pkg
		}
	}
	return nil
}

// declaredMsgTypes extracts the exported TypeX constants of the msg.Type
// enum (skipping TypeInvalid and unexported terminators).
func declaredMsgTypes(pkg *Package) []declaredType {
	var out []declaredType
	for _, file := range pkg.Files {
		if file.Test {
			continue
		}
		for _, decl := range file.AST.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			if !constBlockOfType(gd, "Type") {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if !name.IsExported() || !strings.HasPrefix(name.Name, "Type") || name.Name == "TypeInvalid" {
						continue
					}
					out = append(out, declaredType{name: name.Name, pos: name.Pos()})
				}
			}
		}
	}
	return out
}

// constBlockOfType reports whether a const block's first typed spec uses
// the named type (the iota-enum idiom).
func constBlockOfType(gd *ast.GenDecl, typeName string) bool {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if id, ok := vs.Type.(*ast.Ident); ok {
			return id.Name == typeName
		}
	}
	return false
}

// typeNameMapKeys collects the keys of the typeNames map literal.
func typeNameMapKeys(pkg *Package) map[string]bool {
	out := make(map[string]bool)
	for _, file := range pkg.Files {
		if file.Test {
			continue
		}
		ast.Inspect(file.AST, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, name := range vs.Names {
				if name.Name != "typeNames" || i >= len(vs.Values) {
					continue
				}
				cl, ok := vs.Values[i].(*ast.CompositeLit)
				if !ok {
					continue
				}
				for _, el := range cl.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if tn, ok := typeConstName(kv.Key); ok {
						out[tn] = true
					}
				}
			}
			return true
		})
	}
	return out
}

// typeConstName extracts a TypeX constant reference from an expression
// (bare ident inside package msg, or msg.TypeX selector elsewhere).
func typeConstName(expr ast.Expr) (string, bool) {
	switch e := expr.(type) {
	case *ast.Ident:
		if strings.HasPrefix(e.Name, "Type") {
			return e.Name, true
		}
	case *ast.SelectorExpr:
		if strings.HasPrefix(e.Sel.Name, "Type") {
			return e.Sel.Name, true
		}
	}
	return "", false
}

// isMessageLit reports whether a composite literal constructs a
// msg.Message (or Message inside package msg).
func isMessageLit(cl *ast.CompositeLit) bool {
	switch t := cl.Type.(type) {
	case *ast.Ident:
		return t.Name == "Message"
	case *ast.SelectorExpr:
		return t.Sel.Name == "Message"
	}
	return false
}

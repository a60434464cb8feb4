package vetcheck

import (
	"go/ast"
)

// DocComment enforces the observability contract's documentation half: in
// the packages whose exported surface the tracing and protocol docs lean on
// (msg, vm, threadgroup, trace), every exported declaration must carry a doc
// comment, and exported fields of exported structs — the wire message
// formats above all — must be commented field by field. A wire field like
// Message.Span is protocol, not implementation detail: its semantics
// (first-send stamping, retransmit reuse) live in the comment, and an
// undocumented field is a protocol rule that exists only in someone's head.
type DocComment struct{}

// docPackages are the packages held to the every-exported-decl standard.
// sim and core are held to it too: the Engine API is the hottest surface in
// the tree and its contract lives in its doc comments.
var docPackages = map[string]bool{
	"msg":         true,
	"vm":          true,
	"threadgroup": true,
	"trace":       true,
	"sim":         true,
	"core":        true,
}

// Name implements Analyzer.
func (DocComment) Name() string { return "doccomment" }

// Check implements Analyzer.
func (DocComment) Check(t *Tree) []Finding {
	var out []Finding
	for _, pkg := range t.Pkgs {
		if !docPackages[pkg.Name] {
			continue
		}
		for _, file := range pkg.Files {
			if file.Test {
				continue
			}
			for _, decl := range file.AST.Decls {
				out = append(out, checkDecl(t, decl)...)
			}
		}
	}
	return out
}

// checkDecl emits findings for one top-level declaration: the declaration
// itself if exported and undocumented, and the exported fields of any
// exported struct type it declares.
func checkDecl(t *Tree, decl ast.Decl) []Finding {
	var out []Finding
	undocumented := func(n ast.Node, what, name string) {
		out = append(out, Finding{
			Pos:  t.Fset.Position(n.Pos()),
			Rule: "doccomment",
			Message: "exported " + what + " " + name + " has no doc comment; " +
				"this package's exported surface is the documented protocol",
		})
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc == nil && receiverExported(d) {
			what := "function"
			if d.Recv != nil {
				what = "method"
			}
			undocumented(d, what, d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				// A single-spec `type Foo ...` is documented by the GenDecl's
				// doc comment; grouped specs document each TypeSpec.
				if d.Doc == nil && s.Doc == nil {
					undocumented(s, "type", s.Name.Name)
				}
				if st, ok := s.Type.(*ast.StructType); ok {
					out = append(out, checkFields(t, s.Name.Name, st)...)
				}
			case *ast.ValueSpec:
				if d.Doc != nil || s.Doc != nil {
					continue
				}
				for _, name := range s.Names {
					if name.IsExported() {
						undocumented(s, "const/var", name.Name)
						break // one finding per spec line is enough
					}
				}
			}
		}
	}
	return out
}

// receiverExported reports whether a declaration is a plain function or a
// method on an exported receiver type; methods on unexported types are not
// part of the package's surface even when their own name is exported (e.g.
// String on an unexported helper).
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Generic receivers look like IndexExpr/IndexListExpr around the name.
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	id, ok := t.(*ast.Ident)
	return !ok || id.IsExported()
}

// checkFields requires a doc comment or trailing line comment on every
// exported field of an exported struct.
func checkFields(t *Tree, typeName string, st *ast.StructType) []Finding {
	var out []Finding
	for _, f := range st.Fields.List {
		if f.Doc != nil || f.Comment != nil {
			continue
		}
		for _, name := range f.Names {
			if name.IsExported() {
				out = append(out, Finding{
					Pos:  t.Fset.Position(f.Pos()),
					Rule: "doccomment",
					Message: "exported field " + typeName + "." + name.Name + " has no comment; " +
						"wire and protocol structs are documented field by field",
				})
				break
			}
		}
	}
	return out
}

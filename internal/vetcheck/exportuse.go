package vetcheck

import (
	"fmt"
	"go/types"
	"strings"
)

// ExportUse holds a package's exported surface to its callers: every
// exported package-level function or variable declared under internal/, and
// every exported method of an exported type there, must be used by another
// package of the module. Uses from other packages' tests count; a package's
// own tests do not, so a name only they need is unexported, moved to an
// export_test.go, or deleted with them. A method is exempt when its type
// implements an interface that declares it (any interface of the module,
// error, fmt.Stringer, json.Marshaler, or the Unwrap that errors.Is asserts):
// such a method is called through the interface. Types, constants and struct
// fields are out of scope.
type ExportUse struct{}

// Name implements Analyzer.
func (ExportUse) Name() string { return "exportuse" }

// Check implements Analyzer.
func (ExportUse) Check(t *Tree) []Finding {
	ifaces := t.interfaces()
	var out []Finding
	report := func(obj types.Object, what string) {
		out = append(out, Finding{Pos: t.Fset.Position(obj.Pos()), Rule: "exportuse",
			Message: fmt.Sprintf("exported %s is used by no other package of the module; "+
				"unexport it, move it to an export_test.go, or delete it", what)})
	}
	for _, pkg := range t.Pkgs {
		if !strings.Contains(pkg.path, "/internal/") {
			continue
		}
		scope := pkg.tpkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			switch obj := obj.(type) {
			case *types.Func:
				if obj.Exported() && !t.refs[obj] {
					report(obj, "function "+name)
				}
			case *types.Var:
				if obj.Exported() && !t.refs[obj] {
					report(obj, "variable "+name)
				}
			case *types.TypeName:
				// An exported alias exports the methods of the type it
				// names (sim.Engine = *engine).
				named := namedType(types.Unalias(obj.Type()))
				if named == nil || named.Obj().Pkg() != pkg.tpkg || !obj.Exported() || types.IsInterface(named) {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !t.refs[m] && !implements(named, m.Name(), ifaces) {
						report(m, "method "+name+"."+m.Name())
					}
				}
			}
		}
	}
	return out
}

// implements reports whether T or *T implements one of ifaces that declares
// a method called name.
func implements(named *types.Named, name string, ifaces []*types.Interface) bool {
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == name &&
				(types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
				return true
			}
		}
	}
	return false
}

// interfaces returns every interface declared in the module, plus error,
// fmt.Stringer, json.Marshaler and the Unwrap() error that errors.Is and
// errors.As assert: the method sets a call may go through.
func (t *Tree) interfaces() []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(0, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(0, nil, "", errType)), false))
	out := []*types.Interface{errType.Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete()}
	for _, std := range [][2]string{{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}} {
		if pkg, err := stdlib.Import(std[0]); err == nil {
			out = append(out, pkg.Scope().Lookup(std[1]).Type().Underlying().(*types.Interface))
		}
	}
	seen := make(map[*types.Interface]bool)
	for _, pkg := range append(append([]*Package(nil), t.Pkgs...), t.deps...) {
		for _, tv := range pkg.info.Types {
			if iface, ok := tv.Type.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 && !seen[iface] {
				seen[iface] = true
				out = append(out, iface)
			}
		}
	}
	return out
}

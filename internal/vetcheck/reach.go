package vetcheck

import (
	"go/ast"
	"sort"
	"strings"
)

// This file is the interprocedural substrate shared by the kernel-locality
// analyzers (kernlocal, detorder) and lockorder: a per-package
// function index, entry-point ("handler root") discovery, and a
// reachable-set closure. Resolution is package-local and name-based —
// methods and functions share one namespace keyed by their bare name, the
// same heuristic lockorder's acquisition summaries use. That
// over-approximates (two types with a method `flush` merge) and
// under-approximates (cross-package and interface calls are invisible),
// which is the right trade for a lint gate: the entry-point list below is
// deliberately broad so event-visible code is in scope even when the call
// edge that reaches it cannot be seen.

// kernelSide reports whether a package holds kernel-side state the
// kernel-locality analyzers police: every sim-managed package plus core,
// the SSI veneer whose syscall surface executes on whichever kernel hosts
// the calling thread.
func kernelSide(pkgName string) bool {
	return Managed(pkgName) || pkgName == "core"
}

// callIndex indexes every non-test function declaration per package, keyed
// by bare name (methods and plain functions alike).
type callIndex struct {
	decls map[string]map[string][]*ast.FuncDecl // pkg -> bare name -> decls
}

// calls returns the Tree's call index, building it on first use so the
// analyzers share one set of summaries per Run.
func (t *Tree) calls() *callIndex {
	if t.callIdx != nil {
		return t.callIdx
	}
	ci := &callIndex{decls: make(map[string]map[string][]*ast.FuncDecl)}
	for _, pkg := range t.Pkgs {
		for _, file := range pkg.Files {
			if file.Test {
				continue
			}
			for _, decl := range file.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if ci.decls[pkg.Name] == nil {
					ci.decls[pkg.Name] = make(map[string][]*ast.FuncDecl)
				}
				ci.decls[pkg.Name][fd.Name.Name] = append(ci.decls[pkg.Name][fd.Name.Name], fd)
			}
		}
	}
	t.callIdx = ci
	return ci
}

// rootSet is one package's entry points: the functions that execute in
// event context (message handlers, engine callbacks, the event-visible
// exported surface) plus anonymous bodies (func literals registered or
// spawned directly).
type rootSet struct {
	names map[string]bool
	anon  []*ast.FuncLit
}

// setupPrefixes mark functions that run during harness setup, before the
// engine starts: constructors and one-shot configuration. They are not
// handler roots (though anything they register as a handler or callback
// is).
var setupPrefixes = []string{"New", "Set", "Enable", "Attach", "Boot", "Inject", "Default"}

func isSetupName(name string) bool {
	for _, p := range setupPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// handlerRoots discovers pkg's entry points:
//
//   - handler funcs registered via <ep>.Handle(type, h);
//   - callbacks passed to Spawn / SpawnDaemon / Schedule (the engine runs
//     them as events);
//   - methods of types with an interface assertion `var _ I = (*T)(nil)`
//     (the osi syscall surface: called through the interface from threads
//     executing on a kernel);
//   - every exported function/method whose name does not mark it
//     setup-only (New*/Set*/Enable*/Attach*/Boot*/Inject*/Default*):
//     package-local analysis cannot see the cross-package call from another
//     kernel-side package's handler into this one, so the exported surface
//     is assumed event-visible.
func handlerRoots(pkg *Package) rootSet {
	rs := rootSet{names: make(map[string]bool)}
	addArg := func(e ast.Expr) {
		switch fn := e.(type) {
		case *ast.Ident:
			rs.names[fn.Name] = true
		case *ast.SelectorExpr:
			rs.names[fn.Sel.Name] = true
		case *ast.FuncLit:
			rs.anon = append(rs.anon, fn)
		}
	}
	assertedTypes := make(map[string]bool)
	for _, file := range pkg.Files {
		if file.Test {
			continue
		}
		ast.Inspect(file.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Handle":
				if len(call.Args) == 2 {
					addArg(call.Args[1])
				}
			case "Spawn", "SpawnDaemon", "Schedule":
				if len(call.Args) == 2 {
					addArg(call.Args[1])
				}
			}
			return true
		})
		// Interface assertions: var _ pkg.Iface = (*T)(nil).
		for _, decl := range file.AST.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "_" || len(vs.Values) != 1 {
					continue
				}
				if name := assertedType(vs.Values[0]); name != "" {
					assertedTypes[name] = true
				}
			}
		}
	}
	for _, file := range pkg.Files {
		if file.Test {
			continue
		}
		for _, decl := range file.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			if (ast.IsExported(name) || assertedTypes[recvTypeName(fd)]) && !isSetupName(name) {
				rs.names[name] = true
			}
		}
	}
	return rs
}

// assertedType extracts T from the value of `var _ I = (*T)(nil)` (also
// accepting the value forms (T)(nil) and T{}).
func assertedType(v ast.Expr) string {
	switch e := v.(type) {
	case *ast.CallExpr:
		fn := e.Fun
		if p, ok := fn.(*ast.ParenExpr); ok {
			fn = p.X
		}
		if st, ok := fn.(*ast.StarExpr); ok {
			fn = st.X
		}
		if id, ok := fn.(*ast.Ident); ok {
			return id.Name
		}
	case *ast.CompositeLit:
		if id, ok := e.Type.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// recvTypeName returns the bare receiver type name of a method decl.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if ix, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = ix.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// reachable closes the root set over package-local calls. Func literal
// bodies inside a reachable function are scanned too: procs a handler
// spawns still run kernel-side.
func (ci *callIndex) reachable(pkgName string, rs rootSet) map[string]bool {
	decls := ci.decls[pkgName]
	seen := make(map[string]bool)
	var queue []string
	enqueue := func(name string) {
		if _, exists := decls[name]; exists && !seen[name] {
			seen[name] = true
			queue = append(queue, name)
		}
	}
	scanBody := func(body ast.Node) {
		ast.Inspect(body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if name := calleeName(call); name != "" {
					enqueue(name)
				}
				// A function referenced as a value (callback, method value)
				// is assumed called.
				for _, arg := range call.Args {
					switch a := arg.(type) {
					case *ast.Ident:
						enqueue(a.Name)
					case *ast.SelectorExpr:
						enqueue(a.Sel.Name)
					}
				}
			}
			return true
		})
	}
	for name := range rs.names {
		enqueue(name)
	}
	for _, lit := range rs.anon {
		scanBody(lit.Body)
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		for _, fd := range decls[name] {
			scanBody(fd.Body)
		}
	}
	return seen
}

// reachableBody pairs one in-scope body with the declaration it came from
// (nil for anonymous roots).
type reachableBody struct {
	fn   *ast.FuncDecl // nil for an anonymous root
	body ast.Node
}

// reachableBodies returns every body the analyzers must walk for pkg:
// reachable named functions plus anonymous root literals, in deterministic
// (source) order.
func (ci *callIndex) reachableBodies(pkg *Package, rs rootSet) []reachableBody {
	reach := ci.reachable(pkg.Name, rs)
	names := make([]string, 0, len(reach))
	for name := range reach {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []reachableBody
	for _, name := range names {
		for _, fd := range ci.decls[pkg.Name][name] {
			out = append(out, reachableBody{fn: fd, body: fd.Body})
		}
	}
	// Anonymous roots already inside a reachable function would be walked
	// twice (ast.Inspect descends into func literals); keep only the ones
	// no reachable body covers.
	for _, lit := range rs.anon {
		covered := false
		for _, rb := range out {
			if rb.body.Pos() <= lit.Pos() && lit.End() <= rb.body.End() {
				covered = true
				break
			}
		}
		if !covered {
			out = append(out, reachableBody{body: lit.Body})
		}
	}
	return out
}

// Package vetcheck implements popcornvet's static analyzers: determinism
// and protocol lint for the replicated-kernel simulator. The whole
// reproduction rests on the promise that a given seed and program order
// produce an identical schedule; one stray time.Now, bare go statement or
// real sync.Mutex inside sim-managed code silently destroys that and
// invalidates every benchmark figure. These checks make the rules
// mechanical.
//
// The analyzers are stdlib-only and run over a type-checked Tree (load.go):
// every question of the form "is this a map, whose method is this, what does
// this name refer to" is answered by go/types, so there is no expression an
// analyzer "could not resolve" — a tree that does not type-check does not
// load. The declarations of the shipped tree the rules key on
// (msg.Endpoint.Call, kernel.Cluster.Kernels, sim.Mutex.Lock, ...) are the
// anchors declared below; the interprocedural questions ("can this call
// reach the fabric", "which locks does it take", "is it on a hot path") go
// to the one call graph in reach.go. Violations can be suppressed with a
// justified directive:
//
//	//popcornvet:allow <rule> <reason>
//
// placed on the offending line, on the line above it, or in the doc
// comment of the enclosing function (which suppresses the rule for the
// whole function). A directive without a reason, one that names no
// analyzer, and one that suppresses nothing are themselves violations.
package vetcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// File is one parsed non-test source file.
type File struct {
	Name string // path as given to the loader
	AST  *ast.File
}

// Package is one type-checked directory-level package.
type Package struct {
	Name    string // package clause name
	Dir     string
	Managed bool // subject to the determinism rules
	Files   []*File
	path    string // import path
	tpkg    *types.Package
	info    *types.Info
}

// Tree is the type-checked forest the analyzers run over.
type Tree struct {
	Fset *token.FileSet
	Pkgs []*Package
	// deps are in-module packages the roots import but do not contain: they
	// are type-checked and part of the call graph, but never reported on.
	deps []*Package
	// refs are the objects some package of the module uses from another
	// package, its tests included; only ExportUse reads them.
	refs map[types.Object]bool
	// graph caches the call graph (reach.go) and waivers the parsed
	// directives; both are built on first use and shared by one Run.
	graph   *callGraph
	waivers []*directive
}

// Analyzer is one pluggable check.
type Analyzer interface {
	Name() string
	Check(t *Tree) []Finding
}

// Analyzers returns every built-in analyzer.
func Analyzers() []Analyzer {
	return []Analyzer{
		SimTime{}, MsgProto{}, LockSend{}, LockOrder{}, DirVer{},
		KernLocal{}, DetOrder{}, ExportUse{},
	}
}

// knownRules are the rule names an allow-directive may legally name: every
// analyzer plus the directive meta-rule itself. A directive naming anything
// else suppresses nothing and is reported, so a typo cannot silently leave
// a violation live.
func knownRules() map[string]bool {
	rules := map[string]bool{"directive": true}
	for _, a := range Analyzers() {
		rules[a.Name()] = true
	}
	return rules
}

// managedPackages are the sim-managed package names: code in them executes
// under the simulation engine, so wall-clock time, bare goroutines, global
// randomness and real sync primitives are forbidden. The sim package itself
// is included: its internals earn explicit allow-directives instead of a
// blanket exemption.
var managedPackages = map[string]bool{
	"sim":         true,
	"msg":         true,
	"kernel":      true,
	"vm":          true,
	"threadgroup": true,
	"futex":       true,
	"sanitize":    true,
	"sched":       true,
	"task":        true,
	"workload":    true,
	"smp":         true,
	"multikernel": true,
	"osi":         true,
}

// managed reports whether a package name is subject to the determinism
// rules.
func managed(pkgName string) bool { return managedPackages[pkgName] }

// kernelSide reports whether a package holds kernel-side state the
// kernel-locality analyzers police: every sim-managed package plus core,
// the SSI veneer whose syscall surface executes on whichever kernel hosts
// the calling thread.
func kernelSide(pkgName string) bool {
	return managed(pkgName) || pkgName == "core"
}

// anchor names one declaration of the shipped tree that a rule keys on: a
// package-level function, type or variable (recv empty), or a method or
// field of the named type. Packages are matched by name, as Managed does.
// Every anchor is registered at declaration, and TestAnchorsResolve looks
// each one up in the real tree, so a rename cannot blind a rule silently.
type anchor struct{ pkg, recv, name string }

var anchors []anchor

func declare(pkg, recv, name string) anchor {
	a := anchor{pkg, recv, name}
	anchors = append(anchors, a)
	return a
}

// is reports whether obj, a member of owner (nil for package-level
// objects), is the anchored declaration.
func (a anchor) is(obj types.Object, owner types.Type) bool {
	if obj == nil || obj.Pkg() == nil || obj.Name() != a.name || obj.Pkg().Name() != a.pkg {
		return false
	}
	recv := ""
	if n := namedType(owner); n != nil {
		recv = n.Obj().Name()
	}
	return recv == a.recv
}

// namedType returns the named type t is or points to, or nil.
func namedType(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isFunc reports whether fn is the anchored function or method.
func (a anchor) isFunc(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return a.is(fn, recv.Type())
	}
	return a.is(fn, nil)
}

// isType reports whether t (or the type it points to) is the anchored
// named type.
func (a anchor) isType(t types.Type) bool {
	n := namedType(t)
	return n != nil && a.is(n.Obj(), nil)
}

// isField reports whether e selects the anchored struct field.
func (a anchor) isField(info *types.Info, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s := info.Selections[sel]
	return s != nil && s.Kind() == types.FieldVal && a.is(s.Obj(), s.Recv())
}

// callee resolves the declared function or method a call invokes: generic
// instances resolve to their origin, and the result is nil for builtins,
// conversions and calls of function values.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) { // explicit instantiation f[T](...)
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	var id *ast.Ident
	switch fn := fun.(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}

// fromStd reports whether obj is declared by the standard-library package
// with the given import path.
func fromStd(obj types.Object, path string) bool {
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == path
}

// funcs calls fn for every function declaration with a body in pkg.
func (pkg *Package) funcs(fn func(file *File, fd *ast.FuncDecl)) {
	for _, file := range pkg.Files {
		for _, decl := range file.AST.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(file, fd)
			}
		}
	}
}

// setupPrefixes mark functions that run during harness setup, before the
// engine starts: constructors and one-shot configuration.
var setupPrefixes = []string{"New", "Set", "Enable", "Attach", "Boot", "Inject", "Default"}

// eventBodies calls fn for every body of pkg that executes in event context
// — under the engine, on some kernel's behalf. That is every function
// except the setup-only ones (setupPrefixes), plus the function literals
// inside those: what setup code registers as a handler, an engine callback,
// an invariant or a fault hook runs as an event. The kernel-locality
// analyzers (kernlocal, detorder) police exactly these bodies.
func (pkg *Package) eventBodies(fn func(body *ast.BlockStmt)) {
	pkg.funcs(func(_ *File, fd *ast.FuncDecl) {
		setup := false
		for _, p := range setupPrefixes {
			setup = setup || strings.HasPrefix(fd.Name.Name, p)
		}
		if !setup {
			fn(fd.Body)
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				fn(lit.Body)
				return false
			}
			return true
		})
	})
}

// Run executes the analyzers over the tree, filters findings suppressed by
// allow-directives, appends the directive meta-rule's findings (malformed
// directives, and waivers for an analyzer that ran which suppressed none of
// its findings), and returns the result sorted by position.
func Run(t *Tree, analyzers []Analyzer) []Finding {
	waivers := t.directives()
	used := make(map[*directive]bool)
	ran := make(map[string]bool)
	var out []Finding
	for _, a := range analyzers {
		ran[a.Name()] = true
		for _, f := range a.Check(t) {
			suppressed := false
			for _, d := range waivers {
				if d.covers(f) {
					used[d], suppressed = true, true
				}
			}
			if !suppressed {
				out = append(out, f)
			}
		}
	}
	for _, d := range waivers {
		switch {
		case d.malformed != "":
			out = append(out, Finding{Pos: d.pos, Rule: "directive", Message: d.malformed})
		case ran[d.rule] && !used[d]:
			out = append(out, Finding{Pos: d.pos, Rule: "directive",
				Message: fmt.Sprintf("//popcornvet:allow %s suppresses nothing: no %s finding falls in its scope; "+
					"a stale waiver hides the next real violation written there — delete it", d.rule, d.rule)})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

const directivePrefix = "popcornvet:allow"

// directive is one //popcornvet:allow comment: the rule it suppresses on
// lines [from, to] of its file and the written reason, or — when it has no
// reason or names no analyzer — the finding it is instead.
type directive struct {
	pos          token.Position
	rule, reason string
	from, to     int
	malformed    string
}

func (d *directive) covers(f Finding) bool {
	return d.malformed == "" && d.rule == f.Rule && d.pos.Filename == f.Pos.Filename &&
		d.from <= f.Pos.Line && f.Pos.Line <= d.to
}

// directives parses every //popcornvet:allow directive of the tree, once. A
// directive covers its own line span plus the following line; a directive
// inside a function's doc comment covers the whole function (but never more
// than the one decl: suppression stays scoped to what the comment
// documents).
func (t *Tree) directives() []*directive {
	if t.waivers != nil {
		return t.waivers
	}
	known := knownRules()
	t.waivers = []*directive{}
	for _, pkg := range t.Pkgs {
		for _, file := range pkg.Files {
			docSpan := make(map[*ast.CommentGroup][2]int)
			for _, decl := range file.AST.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
					docSpan[fd.Doc] = [2]int{t.Fset.Position(fd.Pos()).Line, t.Fset.Position(fd.End()).Line}
				}
			}
			for _, cg := range file.AST.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, directivePrefix) {
						continue
					}
					rule, reason, _ := strings.Cut(strings.TrimSpace(strings.TrimPrefix(text, directivePrefix)), " ")
					d := &directive{pos: t.Fset.Position(c.Pos()), rule: rule, reason: strings.TrimSpace(reason)}
					d.from, d.to = d.pos.Line, t.Fset.Position(c.End()).Line+1
					if span, ok := docSpan[cg]; ok {
						d.from, d.to = span[0], span[1]
					}
					switch {
					case d.reason == "":
						d.malformed = "malformed //popcornvet:allow: need \"<rule> <reason>\"; " +
							"an unexplained suppression is as bad as the violation"
					case !known[rule]:
						d.malformed = fmt.Sprintf("//popcornvet:allow names unknown analyzer %q; "+
							"a misspelled rule suppresses nothing", rule)
					}
					t.waivers = append(t.waivers, d)
				}
			}
		}
	}
	return t.waivers
}

package vetcheck

import (
	"go/ast"
	"go/types"
)

// This file is the one call graph the interprocedural analyzers share
// (locksend, lockorder and the escape gate's HotSpans). A node is a
// function or method declared with a body anywhere in the module; an edge
// f -> g exists when f's body names g at all — calls it, takes it as a
// method value (r.each = r.callOne), passes it as a callback — because a
// function that is named is assumed to run. A reference to an interface
// method fans out to that method on every in-module type implementing the
// interface, and a method of an instantiated generic type resolves to its
// declaration. Calling a function *value* adds no edge of its own: the edge
// sits where the function was named. Each edge remembers whether g is named
// only inside function literals of f, whose bodies usually run in another
// proc; the client decides whether those count.

// funcNode is one declared function.
type funcNode struct {
	fn    *types.Func
	pkg   *Package
	file  *File
	decl  *ast.FuncDecl
	edges []edge
}

type edge struct {
	to    *funcNode
	inLit bool // named only inside function literals of the body
}

type callGraph struct {
	nodes map[*types.Func]*funcNode
	named []types.Type                  // every in-module named concrete type, as *T
	impls map[*types.Func][]*types.Func // interface method -> in-module implementations
}

// calls returns the Tree's call graph, building it on first use.
func (t *Tree) calls() *callGraph {
	if t.graph != nil {
		return t.graph
	}
	g := &callGraph{nodes: make(map[*types.Func]*funcNode), impls: make(map[*types.Func][]*types.Func)}
	t.graph = g
	for _, pkg := range append(append([]*Package(nil), t.Pkgs...), t.deps...) {
		pkg.funcs(func(file *File, fd *ast.FuncDecl) {
			fn := pkg.info.Defs[fd.Name].(*types.Func)
			g.nodes[fn] = &funcNode{fn: fn, pkg: pkg, file: file, decl: fd}
		})
		scope := pkg.tpkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) && named.TypeParams().Len() == 0 {
					g.named = append(g.named, types.NewPointer(named))
				}
			}
		}
	}
	for _, n := range g.nodes {
		index := make(map[*funcNode]int)
		var scan func(root ast.Node, inLit bool)
		scan = func(root ast.Node, inLit bool) {
			ast.Inspect(root, func(m ast.Node) bool {
				if lit, ok := m.(*ast.FuncLit); ok {
					scan(lit.Body, true)
					return false
				}
				id, ok := m.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := n.pkg.info.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				for _, to := range g.targets(fn) {
					if i, seen := index[to]; seen {
						n.edges[i].inLit = n.edges[i].inLit && inLit
					} else {
						index[to] = len(n.edges)
						n.edges = append(n.edges, edge{to: to, inLit: inLit})
					}
				}
				return true
			})
		}
		scan(n.decl.Body, false)
	}
	return g
}

// node returns the graph node of a declaration of pkg.
func (g *callGraph) node(pkg *Package, fd *ast.FuncDecl) *funcNode {
	return g.nodes[pkg.info.Defs[fd.Name].(*types.Func)]
}

// targets returns the declared functions a reference to fn may run: fn's
// own declaration, or for an interface method every in-module
// implementation of it. Functions declared outside the module (or without a
// body) have no node and are dropped.
func (g *callGraph) targets(fn *types.Func) []*funcNode {
	fn = fn.Origin()
	candidates := []*types.Func{fn}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		cached, ok := g.impls[fn]
		if !ok {
			iface := recv.Type().Underlying().(*types.Interface)
			for _, ptr := range g.named {
				if !types.Implements(ptr, iface) {
					continue
				}
				if m, _, _ := types.LookupFieldOrMethod(ptr, false, fn.Pkg(), fn.Name()); m != nil {
					cached = append(cached, m.(*types.Func).Origin())
				}
			}
			g.impls[fn] = cached
		}
		candidates = cached
	}
	var out []*funcNode
	for _, c := range candidates {
		if n := g.nodes[c]; n != nil {
			out = append(out, n)
		}
	}
	return out
}

// callees returns the nodes a call expression may invoke.
func (g *callGraph) callees(info *types.Info, call *ast.CallExpr) []*funcNode {
	if fn := callee(info, call); fn != nil {
		return g.targets(fn)
	}
	return nil
}

// closure returns every node reachable from roots; enter gates each edge.
func (g *callGraph) closure(roots []*funcNode, enter func(from, to *funcNode) bool) map[*funcNode]bool {
	seen := make(map[*funcNode]bool)
	for _, r := range roots {
		seen[r] = true
	}
	queue := append([]*funcNode(nil), roots...)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.edges {
			if !seen[e.to] && enter(n, e.to) {
				seen[e.to] = true
				queue = append(queue, e.to)
			}
		}
	}
	return seen
}

// facts computes a transitive summary: for every node, the least set that
// holds direct(node) and the facts of everything its edges lead to. lits
// says whether edges named only inside function literals count — yes when
// the literal's effect comes back to the caller (a proc it spawns and waits
// for), no when the fact is about the executing proc alone.
func (g *callGraph) facts(direct func(*funcNode) []string, lits bool) map[*funcNode]map[string]bool {
	out := make(map[*funcNode]map[string]bool, len(g.nodes))
	for _, n := range g.nodes {
		out[n] = make(map[string]bool)
		for _, f := range direct(n) {
			out[n][f] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.nodes {
			for _, e := range n.edges {
				if e.inLit && !lits {
					continue
				}
				for f := range out[e.to] {
					if !out[n][f] {
						out[n][f] = true
						changed = true
					}
				}
			}
		}
	}
	return out
}

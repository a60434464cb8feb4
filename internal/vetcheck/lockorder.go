package vetcheck

import (
	"fmt"
	"go/ast"
	"maps"
	"slices"
	"strings"
)

// LockOrder infers the sim-lock acquisition hierarchy and flags
// inversions. Every sim.Mutex/sim.RWMutex acquisition made while another
// lock is held contributes an edge held-class -> acquired-class; an edge
// that sits on a cycle means two call paths take the same pair of lock
// classes in opposite orders, which the runtime deadlock detector can only
// catch on the one schedule where the windows actually overlap. Nested
// acquisition of the same class (two directory entries, two futex buckets)
// is flagged too: it is deadlock-free only under a documented instance
// order, which an allow-directive should state.
//
// Held sets flow through each body as in locksend (held.go names the
// classes). A call made under a lock contributes the classes its callee
// acquires, transitively, in the executing proc: the call graph's summary
// with function literals left out, since the procs they become take their
// locks on their own.
type LockOrder struct{}

// Name implements Analyzer.
func (LockOrder) Name() string { return "lockorder" }

// orderEdge records one "acquired to while holding from" observation; via
// names the callee when the acquisition happens inside a call rather than
// syntactically at the site.
type orderEdge struct {
	from, to, via string
	at            ast.Node
}

// Check implements Analyzer.
func (LockOrder) Check(t *Tree) []Finding {
	g := t.calls()
	acquires := g.facts(func(n *funcNode) []string {
		var classes []string
		w := &heldWalker{pkg: n.pkg}
		w.acquire = func(_ *ast.CallExpr, class string, _ map[string]string) { classes = append(classes, class) }
		w.stmts(n.decl.Body.List, map[string]string{})
		return classes
	}, false)
	var edges []orderEdge
	for _, pkg := range t.Pkgs {
		w := &heldWalker{pkg: pkg}
		w.acquire = func(call *ast.CallExpr, class string, held map[string]string) {
			for _, from := range heldClasses(held) {
				edges = append(edges, orderEdge{from: from, to: class, at: call})
			}
		}
		w.call = func(call *ast.CallExpr, held map[string]string) {
			for _, n := range g.callees(pkg.info, call) {
				for _, to := range slices.Sorted(maps.Keys(acquires[n])) {
					for _, from := range heldClasses(held) {
						edges = append(edges, orderEdge{from: from, to: to, via: n.fn.Name(), at: call})
					}
				}
			}
		}
		pkg.funcs(func(_ *File, fd *ast.FuncDecl) { w.stmts(fd.Body.List, map[string]string{}) })
	}

	// Flag every edge on a cycle of the class graph, self-loops included.
	succ := make(map[string]map[string]bool)
	for _, e := range edges {
		if succ[e.from] == nil {
			succ[e.from] = make(map[string]bool)
		}
		succ[e.from][e.to] = true
	}
	var out []Finding
	for _, e := range edges {
		via := ""
		if e.via != "" {
			via = " (via " + e.via + ")"
		}
		var msg string
		if e.from == e.to {
			msg = fmt.Sprintf("nested acquisition of %s while an instance of %s is already held%s; "+
				"deadlock-free only under a documented instance order", e.to, e.from, via)
		} else if path := findPath(succ, e.to, e.from); path != nil {
			msg = fmt.Sprintf("acquiring %s while holding %s%s inverts the lock hierarchy "+
				"(cycle: %s)", e.to, e.from, via, strings.Join(append([]string{e.from}, path...), " -> "))
		} else {
			continue
		}
		out = append(out, Finding{Pos: t.Fset.Position(e.at.Pos()), Rule: "lockorder", Message: msg})
	}
	return out
}

// heldClasses returns the distinct classes of a held set, sorted.
func heldClasses(held map[string]string) []string {
	return slices.Compact(slices.Sorted(maps.Values(held)))
}

// findPath returns a path from -> ... -> to in the class graph, or nil.
func findPath(succ map[string]map[string]bool, from, to string) []string {
	prev := map[string]string{from: ""}
	queue := []string{from}
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		if node == to {
			var path []string
			for n := to; n != ""; n = prev[n] {
				path = append([]string{n}, path...)
			}
			return path
		}
		for _, next := range slices.Sorted(maps.Keys(succ[node])) {
			if _, seen := prev[next]; !seen {
				prev[next] = node
				queue = append(queue, next)
			}
		}
	}
	return nil
}

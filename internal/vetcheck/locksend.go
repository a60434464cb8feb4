package vetcheck

import (
	"fmt"
	"go/ast"
)

// LockSend flags code that holds a sim.Mutex (or sim.RWMutex) across a
// blocking fabric operation. A message send or RPC parks the proc for
// simulated wire latency — and a Call parks until the remote handler
// replies. If that handler (or anything downstream of it) needs the lock
// the caller is holding, the system deadlocks; even when it does not, the
// lock is pinned for a full cross-kernel round trip. Sites where that
// serialisation is the point (the origin-side directory transaction) carry
// a justified allow-directive.
//
// A call blocks when its callee reaches one of the fabric's three entry
// points in the call graph (reach.go): through an interface it blocks if
// any implementation does, and a function that spawns procs which send
// blocks too, because the callers that matter wait for them
// (batchTransactions). Acquiring a contended sim lock also parks, but that
// is lockorder's subject and the runtime deadlock detector's; it is not a
// fabric operation and never reaches one. The walk itself is held.go's.
type LockSend struct{}

// Name implements Analyzer.
func (LockSend) Name() string { return "locksend" }

// fabricSends are the fabric entry points: every one of them parks the
// calling proc at least for the simulated wire latency. The unexported call
// is the RPC path under Call, the kinds' sends and the fan-out workers.
var fabricSends = []anchor{
	declare("msg", "Endpoint", "Call"), declare("msg", "Endpoint", "CallEach"),
	declare("msg", "Endpoint", "Send"), declare("msg", "Endpoint", "call"),
}

// Check implements Analyzer.
func (LockSend) Check(t *Tree) []Finding {
	g := t.calls()
	blocks := g.facts(func(n *funcNode) []string {
		if anyFunc(fabricSends, n.fn) {
			return []string{"fabric"}
		}
		return nil
	}, true)
	var out []Finding
	for _, pkg := range t.Pkgs {
		w := &heldWalker{pkg: pkg}
		w.call = func(call *ast.CallExpr, held map[string]string) {
			for _, n := range g.callees(pkg.info, call) {
				if len(blocks[n]) > 0 {
					out = append(out, Finding{
						Pos:  t.Fset.Position(call.Pos()),
						Rule: "locksend",
						Message: fmt.Sprintf("%s can block on the fabric while %s is held; "+
							"a remote handler needing that lock deadlocks the cluster", n.fn.Name(), heldList(held)),
					})
					return
				}
			}
		}
		pkg.funcs(func(_ *File, fd *ast.FuncDecl) { w.stmts(fd.Body.List, map[string]string{}) })
	}
	return out
}

package vetcheck

import (
	"go/ast"
	"go/token"
)

// KernLocal enforces the replicated-kernel locality contract (DESIGN.md
// §11): kernels share nothing, so code executing on one kernel's event path
// must not read or write another kernel's mutable state except by sending
// messages through its own endpoint. Two access shapes break that promise
// and are flagged in every event-context body (Package.eventBodies) of the
// kernel-side packages:
//
//  1. obtaining a peer endpoint — a msg.Fabric.Endpoint(n) call or an index
//     into the fabric's endpoints table. A kernel's sanctioned exit is
//     Send/Call on the endpoint it cached at construction; grabbing another
//     kernel's endpoint is touching its doorstep directly.
//  2. reaching through the cluster table — indexing or ranging over
//     kernel.Cluster.Kernels, or a core.OS.Kernel(i) call. Dereferencing a
//     *Kernel that is not the executing thread's own handle means one event
//     touches two kernels' state.
//
// Either shape would run correctly on the simulator — one engine runs every
// event — but it would model a shared-memory shortcut the paper's kernels do
// not have: they share nothing and talk only by messages, so state one kernel
// owns is reached from another only through its endpoint. Every such site is
// either removed or carries a written justification.
type KernLocal struct{}

// Name implements Analyzer.
func (KernLocal) Name() string { return "kernlocal" }

var (
	fabricEndpoint  = declare("msg", "Fabric", "Endpoint")
	fabricEndpoints = declare("msg", "Fabric", "endpoints")
	clusterKernels  = declare("kernel", "Cluster", "Kernels")
	osKernel        = declare("core", "OS", "Kernel")
)

// Check implements Analyzer.
func (KernLocal) Check(t *Tree) []Finding {
	var out []Finding
	for _, pkg := range t.Pkgs {
		if !kernelSide(pkg.Name) {
			continue
		}
		flag := func(pos token.Pos, msg string) {
			out = append(out, Finding{Pos: t.Fset.Position(pos), Rule: "kernlocal", Message: msg})
		}
		pkg.eventBodies(func(body *ast.BlockStmt) {
			ast.Inspect(body, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.CallExpr:
					switch fn := callee(pkg.info, node); {
					case fabricEndpoint.isFunc(fn):
						flag(node.Pos(), "handler path obtains a kernel endpoint by node ID; "+
							"cross-kernel interaction must go through this kernel's own cached endpoint "+
							"(Send/Call), not a peer's — kernels interact only by messages")
					case osKernel.isFunc(fn):
						flag(node.Pos(), "handler path dereferences the cluster table (.Kernel(n)); "+
							"an event handler touching a foreign *Kernel's state breaks the shared-nothing "+
							"contract — route the operation through msg instead")
					}
				case *ast.IndexExpr:
					switch {
					case clusterKernels.isField(pkg.info, node.X):
						flag(node.Pos(), "handler path indexes the cluster table (.Kernels[i]); "+
							"an event handler touching a foreign *Kernel's state breaks the shared-nothing "+
							"contract — route the operation through msg instead")
					case fabricEndpoints.isField(pkg.info, node.X):
						flag(node.Pos(), "handler path indexes the endpoint table directly; "+
							"only the fabric's delivery step may touch a peer's queue")
					}
				case *ast.RangeStmt:
					if clusterKernels.isField(pkg.info, node.X) {
						flag(node.X.Pos(), "handler path ranges over the cluster table; "+
							"an event visiting every kernel's state serialises the whole machine — "+
							"use a multicast or per-kernel messages")
					}
				}
				return true
			})
		})
	}
	return out
}

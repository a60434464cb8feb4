package kernel

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/stats"
)

// handlerExempt lists message types a booted kernel is NOT required to
// handle, each with the reason. Everything else in the enum must have a
// registered handler on every kernel: an unhandled type fails the run the
// first time a remote kernel sends it.
var handlerExempt = map[msg.Type]string{
	msg.TypeInvalid:   "zero value, never sent",
	msg.TypePing:      "control traffic owned by tests and the T1 benchmark, which register it themselves",
	msg.TypeUser:      "application-level traffic; the multikernel baseline wires it per domain",
	msg.TypeHeartbeat: "consumed by the fabric itself in deliver; never enqueued or dispatched to a handler",
	msg.TypeRejoin:    "registered by msg.EnableFaults on every endpoint; only a fault plan's rejoin handshake sends it",
}

// TestClusterHandlesEveryMessageType boots a cluster and cross-checks the
// msg.Type enum against the handlers actually registered on each kernel's
// endpoint. It is the one handler-registration check: popcornvet's msgproto
// analyzer checks only send sites and discarded RPC errors.
func TestClusterHandlesEveryMessageType(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m := testMachine(t)
	cfg := DefaultClusterConfig(m)
	cl, err := Boot(e, m, cfg, stats.NewRegistry())
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	for node := range cl.Kernels {
		ep := cl.Fabric.Endpoint(msg.NodeID(node))
		for _, ty := range msg.AllTypes() {
			if _, exempt := handlerExempt[ty]; exempt {
				continue
			}
			if !ep.Handles(ty) {
				t.Errorf("kernel %d has no handler for %v; register one or add an exemption with a reason", node, ty)
			}
		}
		// The exemption list must not rot: a type that gains a handler no
		// longer needs its entry.
		for ty := range handlerExempt {
			if ty == msg.TypeInvalid {
				continue
			}
			if ep.Handles(ty) {
				t.Errorf("kernel %d handles %v, which is listed as exempt; drop the stale exemption", node, ty)
			}
		}
	}
}

package core

import (
	"fmt"
	"strings"
)

// Snapshot renders the OS's current state — per-kernel scheduler load,
// memory usage, lock contention and message counters — as a human-readable
// report, the reproduction's stand-in for /proc. Harnesses call it between
// runs or at quiescence, from outside any kernel's event path.
//
//popcornvet:allow kernlocal diagnostic whole-machine report taken at quiescence, outside any event path
func (o *OS) Snapshot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "popcorn: %d kernels on %d cores / %d NUMA nodes, virtual time %v\n",
		len(o.cluster.Kernels), o.machine.Topology.Cores, o.machine.Topology.NUMANodes, o.e.Now())
	for _, k := range o.cluster.Kernels {
		alloc := k.Frames.Allocator()
		zs := k.Frames.LockStats()
		fmt.Fprintf(&b, "kernel %d: cores %v\n", k.Node, k.Sched.CoreIDs())
		fmt.Fprintf(&b, "  sched: %d running, %d queued\n", k.Sched.RunningTasks(), k.Sched.Queued())
		fmt.Fprintf(&b, "  mem:   %d/%d frames in use\n", alloc.InUse(), alloc.InUse()+alloc.Available())
		fmt.Fprintf(&b, "  zone lock: %d acquisitions, %d contended, %v total wait\n",
			zs.Acquisitions, zs.Contended, zs.TotalWait)
	}
	fmt.Fprintf(&b, "fabric: %d messages sent, %d delivered, %d RPCs\n",
		o.metrics.Counter("msg.sent").Value(),
		o.metrics.Counter("msg.delivered").Value(),
		o.metrics.Counter("msg.rpc").Value())
	fmt.Fprintf(&b, "vm: %d local faults, %d remote faults, %d page transfers, %d invalidations\n",
		o.metrics.Counter("vm.fault.local").Value(),
		o.metrics.Counter("vm.fault.remote").Value(),
		o.metrics.Counter("vm.page.transfer").Value(),
		o.metrics.Counter("vm.inval.sent").Value())
	fmt.Fprintf(&b, "threads: %d local spawns, %d remote spawns, %d migrations, %d exits\n",
		o.metrics.Counter("tg.spawn.local").Value(),
		o.metrics.Counter("tg.spawn.remote").Value(),
		o.metrics.Counter("tg.migrate").Value(),
		o.metrics.Counter("tg.exit").Value())
	return b.String()
}

package main

import (
	"math"
	"sort"
)

// metricDef describes one metric of the contract. The table below is the
// single source BENCHMARK.json is checked against (contract_test.go).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share by which an end-to-end median may worsen before it
	// counts as a regression; zero on per-layer metrics, which have none.
	Bound float64
	// Exact marks a count the program makes itself: it repeats exactly, so
	// the A/A check demands equality instead of a tolerance.
	Exact bool
}

// endToEnd are the metrics of the untraced run, per workload.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "1/op", Better: "lower", Bound: 0.03},
	{Name: "bytes_per_op", Unit: "B/op", Better: "lower", Bound: 0.05},
	{Name: "live_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

func ns(name string) metricDef  { return metricDef{Name: name, Unit: "ns", Better: "lower"} }
func ms(name string) metricDef  { return metricDef{Name: name, Unit: "ms", Better: "lower"} }
func pct(name string) metricDef { return metricDef{Name: name, Unit: "%", Better: "lower"} }
func cnt(name string) metricDef {
	return metricDef{Name: name, Unit: "count", Better: "lower", Exact: true}
}

// allocs is a malloc count per operation: a count, but not exact, because
// the runtime's own background allocations land in the same counter.
func allocs(name string) metricDef { return metricDef{Name: name, Unit: "count", Better: "lower"} }

// rigMetrics are the global per-layer rigs (host clock), in layer order.
var rigMetrics = []metricDef{
	ns("sim.callback_ns"), ns("sim.handoff_ns"), ns("sim.chan_rtt_ns"), ns("sim.mutex_handoff_ns"),
	ns("sim.spawn_ns"), ns("sim.timer_cancel_ns"), allocs("sim.allocs_per_handoff"),

	ns("msg.send_ns"), ns("msg.rpc_ns"), ns("msg.rpc_4k_ns"), ns("msg.fanout7_ns"),
	ns("msg.rpc_flow_ns"), ns("msg.rpc_faults_ns"), ns("msg.rpc_failover_ns"), ns("msg.rpc_allplanes_ns"),
	cnt("msg.events_per_rpc"), allocs("msg.allocs_per_rpc"), ns("msg.rpc_self_ns"),

	ns("vm.hit_ns"), ns("vm.fault_local_ns"), ns("vm.fault_remote_ns"), ns("vm.fault_inval3_ns"),
	ns("vm.mmap_munmap_ns"), ns("vm.mprotect_push7_ns"), ns("vm.fault_remote_repl_ns"),
	cnt("vm.events_per_remote_fault"), cnt("vm.msgs_per_remote_fault"), allocs("vm.allocs_per_remote_fault"),
	ns("vm.fault_remote_self_ns"),

	ns("threadgroup.migrate_ns"), ns("threadgroup.migrate_first_ns"),
	ns("threadgroup.clone_local_ns"), ns("threadgroup.clone_remote_ns"),
	cnt("threadgroup.events_per_migrate"), cnt("threadgroup.msgs_per_migrate"), allocs("threadgroup.allocs_per_migrate"),
	ns("threadgroup.migrate_self_ns"),
	{Name: "threadgroup.migrate_virt_us", Unit: "us", Better: "lower", Exact: true},

	ns("futex.local_pair_ns"), ns("futex.remote_pair_ns"),
	cnt("futex.events_per_remote_pair"), cnt("futex.msgs_per_remote_pair"),

	ns("sched.compute_ns"), ms("kernel.boot8_ms"), ns("core.syscall_ns"),
	ns("smp.mmap_munmap_ns"), ns("smp.clone_ns"), ns("multikernel.memstorm_ns"),

	pct("trace.attach_overhead_pct"), pct("sanitize.attach_overhead_pct"), ns("stats.observe_ns"),

	ms("bench.F5b_ms"), ms("bench.F7_ms"), ms("bench.F6_ms"), ms("bench.R3_ms"), ms("bench.F4b_ms"), ms("bench.F4_ms"),
	{Name: "bench.tables_changed", Unit: "count", Better: "lower", Exact: true},
}

// traceMetrics come from the traced run of one workload. On suite, whose
// experiments own their engines, only the bench.* and overhead rows can be
// measured; the rest read 0 there.
var traceMetrics = []metricDef{
	{Name: "virt_ms", Unit: "ms", Better: "lower", Exact: true},
	cnt("sim.events_per_op"), ns("sim.ns_per_event"),
	cnt("msg.sent_per_op"), cnt("msg.rpc_per_op"),
	cnt("vm.remote_faults_per_op"), cnt("vm.inval_per_op"),
	cnt("threadgroup.migrations_per_op"), cnt("futex.remote_per_op"),
	{Name: "core.op_virt_us_p50", Unit: "us", Better: "lower", Exact: true},
	{Name: "core.op_virt_us_p99", Unit: "us", Better: "lower", Exact: true},
	{Name: "trace.virt_share_wire_pct", Unit: "%", Better: "lower", Exact: true},
	{Name: "bench.virt_pinned", Unit: "count", Better: "higher", Exact: true},
	{Name: "bench.rig_coverage", Unit: "ratio", Better: "higher"},
	pct("trace.overhead_pct"),
}

// perLayer is every per-layer metric, rigs first.
func perLayer() []metricDef {
	return append(append([]metricDef(nil), rigMetrics...), traceMetrics...)
}

// dist summarises a sample the way the report prints it.
type dist struct {
	Median, Q1, Q3, Min, Max float64
	N                        int
}

// quartiles returns the three cut points of sorted xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because that
// is how the driver computes the spread a bound is judged against.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	ld := len(sorted)
	if ld == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (sorted[j-1]*(n-delta) + sorted[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

func summarise(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return dist{}
	}
	d := dist{Min: s[0], Max: s[len(s)-1], N: len(s)}
	d.Q1, d.Median, d.Q3 = quartiles(s)
	return d
}

// spread is the interquartile distance as a share of the median.
func (d dist) spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return (d.Q3 - d.Q1) / math.Abs(d.Median)
}

func median(xs []float64) float64 { return summarise(xs).Median }

// child is work a span delegated to a lower layer: count operations, each
// priced at that layer's own rig.
type child struct {
	Count  float64
	UnitNS float64
}

// selfNS is a span's self time: its duration minus what its children cover.
// It is not clamped: a negative value says the lower rig over-prices the
// child as this layer uses it, which is itself a finding.
func selfNS(spanNS float64, children ...child) float64 {
	for _, c := range children {
		spanNS -= c.Count * c.UnitNS
	}
	return spanNS
}

// worseBy returns by what share b is worse than a under the metric's
// direction (negative when b is better).
func (m metricDef) worseBy(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if m.Better == "higher" {
		d = -d
	}
	return d
}

package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/osi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// options are the knobs of one invocation.
type options struct {
	seed int64
	// seconds is the measuring budget per workload: timed reps repeat until
	// it is spent. Op counts never scale with it, only the number of reps.
	seconds float64
	// reps, when positive, fixes the number of timed reps instead.
	reps int
	size size
}

// minReps is the floor on timed reps, whatever the budget says.
const minReps = 3

// outcome is what one run of a workload, untraced or traced, produced.
type outcome struct {
	Workload          string
	Attempted, Failed uint64
	Values            map[string]float64
	// Problems are failed checks; any makes the run incorrect.
	Problems []string

	// Untraced runs: every timed rep in order and their summary, the
	// warm-up rep, and whether its virtual result equals pins.json (always
	// false away from the pin seed and full size, where no pin exists).
	Walls  []float64
	Wall   dist
	Pinned bool
	warm   rep

	// Traced runs: how many whole ops fed the latency percentiles.
	OpsTimed int
}

func (oc *outcome) problem(format string, args ...any) {
	oc.Problems = append(oc.Problems, fmt.Sprintf(format, args...))
}

func (oc *outcome) correct() bool { return oc.Failed == 0 && len(oc.Problems) == 0 }

func (oc *outcome) count(r rep) {
	oc.Attempted, oc.Failed = oc.Attempted+r.Attempted, oc.Failed+r.Failed
}

// liveMB is heap plus stacks still in use after a forced collection, MiB.
func liveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc+m.StackInuse) / (1 << 20)
}

// sameVirtual reports whether two reps agree on everything the virtual
// clock determines. The simulator is deterministic, so reps of one seed
// that differ here are a bug, not noise.
func sameVirtual(a, b rep) bool {
	if a.Ops != b.Ops || a.Virt != b.Virt || len(a.Tables) != len(b.Tables) {
		return false
	}
	for id, tab := range a.Tables {
		if b.Tables[id] != tab {
			return false
		}
	}
	return pinOf(a).equal(pinOf(b))
}

// measure runs w untraced: one warm-up rep (checks, pin comparison, live_mb
// probe), then timed reps on freshly booted machines inside the timed
// window.
func measure(w workloadDef, opt options) *outcome {
	oc := &outcome{Workload: w.name, Values: make(map[string]float64)}
	start := time.Now()

	var live float64
	var boundaries []float64
	warmHooks := hooks{
		booted: func(o osi.OS) osi.OS {
			if o.Name() == "popcorn" {
				o.Engine().Spawn("popbench-probe", func(p *sim.Proc) {
					p.Sleep(w.probeAt)
					live = liveMB()
				})
			}
			return o
		},
		// The suite's experiments own their engines, so its probe sits at
		// the boundaries between them: what the simulator still holds after
		// an experiment has closed its machines. The median boundary, because
		// procs unwind asynchronously after Close and a straggler's stacks
		// would otherwise set the number.
		between: func(string) {
			boundaries = append(boundaries, liveMB())
			live = median(boundaries)
		},
	}
	warm, err := w.run(opt.seed, opt.size, warmHooks)
	oc.warm = warm
	oc.count(warm)
	if err != nil {
		oc.problem("warm-up: %v", err)
	}
	if live == 0 {
		oc.problem("live_mb probe never ran")
	}
	oc.Pinned = opt.seed == pinSeed && opt.size == full && pinned.matches(w.name, warm)
	oc.Values["live_mb"] = live
	oc.Values["setup_s"] = time.Since(start).Seconds()

	var spent float64
	var mallocs, bytes, ops uint64
	done := func() bool {
		if opt.reps > 0 {
			return len(oc.Walls) >= opt.reps
		}
		return len(oc.Walls) >= minReps && spent+median(oc.Walls) > opt.seconds
	}
	for !done() {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		r, err := w.run(opt.seed, opt.size, hooks{})
		wall := time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		oc.Walls = append(oc.Walls, wall)
		spent += wall
		mallocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
		ops += r.Ops
		oc.count(r)
		if err != nil {
			oc.problem("rep %d: %v", len(oc.Walls), err)
		} else if !sameVirtual(warm, r) {
			oc.problem("rep %d diverged from the warm-up rep: virtual results must repeat exactly", len(oc.Walls))
		}
	}
	oc.Wall = summarise(oc.Walls)
	oc.Values["wall_s"] = oc.Wall.Median
	if ops > 0 {
		oc.Values["allocs_per_op"] = float64(mallocs) / float64(ops)
		oc.Values["bytes_per_op"] = float64(bytes) / float64(ops)
	}
	return oc
}

// traceWorkload runs w traced between two untraced reps, writes the span
// file, and derives the workload-trace metrics. rigs prices the coverage
// model.
func traceWorkload(w workloadDef, opt options, rigs map[string]float64) *outcome {
	tc := &outcome{Workload: w.name, Values: make(map[string]float64)}
	for _, m := range traceMetrics {
		tc.Values[m.Name] = 0
	}
	if w.name == "suite" {
		traceSuite(tc, opt, rigs)
		return tc
	}
	// Untraced, traced, untraced: the traced rep is compared with the mean
	// of the two reps that bracket it, so a host that is drifting faster or
	// slower does not read as tracing overhead.
	var plainWall float64
	untraced := func() rep {
		t0 := time.Now()
		r, err := w.run(opt.seed, opt.size, hooks{})
		plainWall += time.Since(t0).Seconds() / 2
		tc.count(r)
		if err != nil {
			tc.problem("untraced rep: %v", err)
		}
		return r
	}
	before := untraced()
	runtime.GC()
	tr, err := runTraced(w, opt.seed, opt.size)
	tc.count(tr.rep)
	if err != nil {
		tc.problem("traced rep: %v", err)
	}
	plain := untraced()
	if !sameVirtual(before, tr.rep) || !sameVirtual(plain, tr.rep) {
		tc.problem("traced rep diverged from the untraced reps: observers must not move the virtual clock")
	}
	if err := writeJSON(w.name+".trace.json", tr.rc.file(w.name, opt.seed)); err != nil {
		tc.problem("write trace: %v", err)
	}

	v, ops := tc.Values, float64(tr.Ops)
	v["virt_ms"] = float64(tr.Virt.Nanoseconds()) / 1e6
	v["sim.events_per_op"] = float64(tr.Events) / ops
	v["sim.ns_per_event"] = plainWall * 1e9 / float64(plain.Events)
	v["msg.sent_per_op"] = float64(tr.Counters["msg.sent"]) / ops
	v["msg.rpc_per_op"] = float64(tr.Counters["msg.rpc"]) / ops
	v["vm.remote_faults_per_op"] = float64(tr.Counters["vm.fault.remote"]) / ops
	v["vm.inval_per_op"] = float64(tr.Counters["vm.inval.sent"]) / ops
	v["threadgroup.migrations_per_op"] = float64(tr.Counters["tg.migrate"]) / ops
	v["futex.remote_per_op"] = float64(tr.Counters["futex.remote"]) / ops
	v["core.op_virt_us_p50"], v["core.op_virt_us_p99"], tc.OpsTimed = tr.rc.opVirtUS()
	v["trace.virt_share_wire_pct"] = pctOf(wireShare(tr.col))
	if opt.seed == pinSeed && opt.size == full && pinned.matches(w.name, tr.rep) {
		v["bench.virt_pinned"] = 1
	}
	// Coverage: every event priced at the proc hand-off, plus each layer's
	// self time per operation it served, over the untraced wall clock.
	modelNS := float64(plain.Events)*rigs["sim.handoff_ns"] +
		float64(plain.Counters["msg.rpc"])*rigs["msg.rpc_self_ns"] +
		float64(plain.Counters["vm.fault.remote"])*rigs["vm.fault_remote_self_ns"] +
		float64(plain.Counters["tg.migrate"])*rigs["threadgroup.migrate_self_ns"]
	v["bench.rig_coverage"] = modelNS / (plainWall * 1e9)
	v["trace.overhead_pct"] = 100 * (tr.wallS/plainWall - 1)
	return tc
}

// traceSuite is the suite's traced run: the experiments that have a traced
// variant run both ways, in alternating order. Their engines are out of
// reach, so the per-op counters stay 0; the pin row reads the rig pass's
// table comparison.
func traceSuite(tc *outcome, opt options, rigs map[string]float64) {
	scale := suiteScale(opt.size)
	var wire, total time.Duration
	// pass runs every traceable experiment once and returns the seconds.
	pass := func(traced, attribute bool) float64 {
		t0 := time.Now()
		for _, e := range suiteExperiments() {
			if e.RunTraced == nil {
				continue
			}
			tc.Attempted++
			var err error
			if traced {
				var col *trace.Collector
				_, col, err = e.RunTraced(scale)
				if attribute && err == nil {
					w, t := wireShare(col)
					wire, total = wire+w, total+t
				}
			} else {
				_, err = e.Run(scale)
			}
			if err != nil {
				tc.Failed++
				tc.problem("suite %s (traced=%v): %v", e.ID, traced, err)
			}
		}
		return time.Since(t0).Seconds()
	}
	var pcts []float64
	for i := 0; i < rigBatches; i++ {
		var plainS, tracedS float64
		if i%2 == 0 {
			plainS, tracedS = pass(false, false), pass(true, i == 0)
		} else {
			tracedS, plainS = pass(true, false), pass(false, false)
		}
		pcts = append(pcts, 100*(tracedS/plainS-1))
	}
	tc.Values["trace.overhead_pct"] = median(pcts)
	tc.Values["trace.virt_share_wire_pct"] = pctOf(wire, total)
	if changed, ran := rigs["bench.tables_changed"]; ran && changed == 0 && opt.size == full {
		tc.Values["bench.virt_pinned"] = 1
	}
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// TestWorkloadsToy runs every workload at toy size and demands that its own
// content checks pass: on core, and on smp too for mmap_local.
func TestWorkloadsToy(t *testing.T) {
	for _, w := range workloads() {
		r, err := w.run(1, toy, hooks{})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if r.Failed != 0 || r.Attempted == 0 || r.Ops != r.Attempted {
			t.Errorf("%s: failed/attempted %d/%d, ops %d", w.name, r.Failed, r.Attempted, r.Ops)
		}
		if w.name == "suite" {
			if len(r.Tables) != len(suiteExperiments()) {
				t.Errorf("suite: %d tables, want %d", len(r.Tables), len(suiteExperiments()))
			}
			continue
		}
		if r.Virt <= 0 || r.Events == 0 {
			t.Errorf("%s: virt %v, events %d", w.name, r.Virt, r.Events)
		}
		again, err := w.run(1, toy, hooks{})
		if err != nil || !sameVirtual(r, again) {
			t.Errorf("%s: a second run of the same seed differs (err %v)", w.name, err)
		}
	}
}

// TestMmapLocalRunsBothOSes pins the bypass property the workload exists
// for: both OS flavours run, and the replicated kernel sends no message.
func TestMmapLocalRunsBothOSes(t *testing.T) {
	r, err := runMmapLocal(1, toy, hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops != 2*64*3 || r.Counters["smp.virt_ns"] == 0 || r.Counters["msg.sent"] != 0 {
		t.Errorf("ops %d, smp virt %d, msg.sent %d", r.Ops, r.Counters["smp.virt_ns"], r.Counters["msg.sent"])
	}
}

// TestSeedMovesInputs: the seed orders the ring, so two seeds must give two
// virtual times (the same seed giving the same one is TestWorkloadsToy's).
func TestSeedMovesInputs(t *testing.T) {
	a, err := runMigrateRing(1, toy, hooks{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runMigrateRing(2, toy, hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Failed+b.Failed != 0 {
		t.Fatalf("failures: %d, %d", a.Failed, b.Failed)
	}
	if a.Virt == b.Virt {
		t.Errorf("seeds 1 and 2 give the same virtual time %v: the hop order ignores the seed", a.Virt)
	}
}

// TestTracedRunDelimitsOps checks each workload's op-boundary rule: the
// traced run must find exactly as many whole ops as the workload completed,
// and the recorder must not move the virtual clock.
func TestTracedRunDelimitsOps(t *testing.T) {
	for _, w := range workloads() {
		if w.name == "suite" {
			continue
		}
		plain, err := w.run(1, toy, hooks{})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		tr, err := runTraced(w, 1, toy)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !sameVirtual(plain, tr.rep) {
			t.Errorf("%s: traced run moved the virtual clock", w.name)
		}
		p50, p99, n := tr.rc.opVirtUS()
		if uint64(n) != tr.Ops || p50 <= 0 || p99 < p50 {
			t.Errorf("%s: %d whole ops (want %d), p50 %v p99 %v", w.name, n, tr.Ops, p50, p99)
		}
		if tr.col.Len() == 0 && w.name != "mmap_local" {
			t.Errorf("%s: the protocol tracer recorded nothing", w.name)
		}
		tf := tr.rc.file(w.name, 1)
		if tf.SpansTotal != len(tr.rc.spans) || len(tf.Spans) == 0 || len(tf.Calls) < 2 {
			t.Errorf("%s: trace file has %d/%d spans, %d call kinds", w.name, len(tf.Spans), tf.SpansTotal, len(tf.Calls))
		}
		for _, sp := range tf.Spans {
			if sp.VirtEnd < sp.VirtStart || sp.HostEnd < sp.HostStart {
				t.Fatalf("%s: span %+v ends before it starts", w.name, sp)
			}
		}
	}
}

// TestMeasureAndDriverResult drives the untraced path end to end at toy
// size and checks the driver's result object carries exactly the end-to-end
// metrics, none of them zero.
func TestMeasureAndDriverResult(t *testing.T) {
	opt := options{seed: 1, reps: 1, size: toy}
	for _, name := range []string{"page_bounce", "suite"} {
		w, _ := findWorkload(name)
		oc := measure(w, opt)
		if !oc.correct() {
			t.Fatalf("%s: failed %d, problems %v", name, oc.Failed, oc.Problems)
		}
		if oc.Pinned {
			t.Errorf("%s: toy size reports pinned, but pins exist at full size only", name)
		}
		set := &resultSet{ok: true, outcomes: map[string]*outcome{name: oc}}
		res := set.result(name)
		if len(res.Metrics) != len(endToEnd) || !res.Correct || res.Attempted == 0 {
			t.Fatalf("%s: result %+v", name, res)
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v", name, m.Name, v)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	if got := selfNS(1000); got != 1000 {
		t.Errorf("no children: %v", got)
	}
	if got := selfNS(1000, child{4, 100}, child{2, 50}); got != 500 {
		t.Errorf("1000 - 4*100 - 2*50 = %v, want 500", got)
	}
	if got := selfNS(100, child{3, 50}); got != -50 {
		t.Errorf("over-priced children must show as negative, got %v", got)
	}
}

// TestQuartilesMatchPython compares against statistics.quantiles(xs, n=4),
// which is what the driver judges spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{4, 8, 15, 16, 23, 42}, 7, 15.5, 27.75},
		{[]float64{7}, 7, 7, 7},
	} {
		d := summarise(c.xs)
		if math.Abs(d.Q1-c.q1) > 1e-9 || math.Abs(d.Median-c.q2) > 1e-9 || math.Abs(d.Q3-c.q3) > 1e-9 {
			t.Errorf("%v: got %v %v %v, want %v %v %v", c.xs, d.Q1, d.Median, d.Q3, c.q1, c.q2, c.q3)
		}
	}
	if d := summarise([]float64{3, 1, 2}); d.Min != 1 || d.Max != 3 || d.N != 3 || d.spread() != 1 {
		t.Errorf("summary %+v spread %v", d, d.spread())
	}
	if d := summarise(nil); d.N != 0 || d.spread() != 0 {
		t.Errorf("empty sample: %+v", d)
	}
}

func TestWorseBy(t *testing.T) {
	lower := metricDef{Better: "lower"}
	higher := metricDef{Better: "higher"}
	if got := lower.worseBy(100, 110); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("lower-is-better 100→110: %v", got)
	}
	if got := higher.worseBy(100, 110); math.Abs(got+0.10) > 1e-12 {
		t.Errorf("higher-is-better 100→110: %v", got)
	}
}

func TestPins(t *testing.T) {
	a := workloadPin{Ops: 10, VirtNS: 5, Counters: map[string]uint64{"msg.sent": 3}}
	if !a.equal(workloadPin{Ops: 10, VirtNS: 5, Counters: map[string]uint64{"msg.sent": 3}}) {
		t.Error("equal pins compare unequal")
	}
	for _, b := range []workloadPin{
		{Ops: 11, VirtNS: 5, Counters: map[string]uint64{"msg.sent": 3}},
		{Ops: 10, VirtNS: 6, Counters: map[string]uint64{"msg.sent": 3}},
		{Ops: 10, VirtNS: 5, Counters: map[string]uint64{"msg.sent": 4}},
		{Ops: 10, VirtNS: 5, Counters: map[string]uint64{"msg.rpc": 3}},
	} {
		if a.equal(b) {
			t.Errorf("%+v compares equal to %+v", a, b)
		}
	}
	p := &pinFile{Tables: map[string]string{"T1": tableDigest("one"), "T2": tableDigest("two")}}
	got := p.changedTables(map[string]string{"T1": "one", "T2": "moved", "T9": "new"})
	if len(got) != 2 || got[0] != "T2" || got[1] != "T9" {
		t.Errorf("changed tables %v, want [T2 T9]", got)
	}
	// The checked-in pins cover every workload and every suite table.
	for _, w := range workloads() {
		if _, ok := pinned.Workloads[w.name]; !ok && w.name != "suite" {
			t.Errorf("pins.json has no pin for %s", w.name)
		}
	}
	if len(pinned.Tables) != len(suiteExperiments()) || pinned.Seed != pinSeed {
		t.Errorf("pins.json: %d tables (want %d), seed %d", len(pinned.Tables), len(suiteExperiments()), pinned.Seed)
	}
}

// TestContract holds BENCHMARK.json and the program's own tables to each
// other: every workload and metric the program prints is in the contract
// with the same unit, direction and bound, and nothing else is.
func TestContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Why    string  `json:"why"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %v paths %v", doc.RunSeconds, doc.Paths)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	once := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		once(w.name)
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program (why must match, ≤200 chars)", i, doc.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, m := range want {
			once(m.Name)
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound || !unit.MatchString(m.Unit) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, m)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer())
	if len(doc.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(doc.PerLayer))
	}
	hasSetup := false
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in seconds, lower is better")
	}
}

// TestTraceWorkload drives the traced path end to end at toy size in a
// scratch directory: every trace metric is reported, the span file is
// written and parses, and the suite's variant works without engines to read.
func TestTraceWorkload(t *testing.T) {
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)
	opt := options{seed: 1, size: toy}
	rigs := map[string]float64{"sim.handoff_ns": 500, "bench.tables_changed": 0}
	for _, name := range []string{"migrate_ring", "suite"} {
		w, _ := findWorkload(name)
		tc := traceWorkload(w, opt, rigs)
		if !tc.correct() || tc.Attempted == 0 {
			t.Fatalf("%s: failed/attempted %d/%d, problems %v", name, tc.Failed, tc.Attempted, tc.Problems)
		}
		for _, m := range traceMetrics {
			if _, ok := tc.Values[m.Name]; !ok {
				t.Errorf("%s: no value for %s", name, m.Name)
			}
		}
		if tc.Values["bench.virt_pinned"] != 0 {
			t.Errorf("%s: toy size reports pinned", name)
		}
	}
	data, err := os.ReadFile(outDir + "/migrate_ring.trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil || tf.Workload != "migrate_ring" || len(tf.Spans) == 0 {
		t.Errorf("span file: %v, %d spans", err, len(tf.Spans))
	}
}

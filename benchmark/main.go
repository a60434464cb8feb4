// Command benchmark is popbench, the repo's two-clock benchmark: six long
// workloads measured on the host clock end to end (wall, allocations, live
// memory, set-up), the virtual clock pinned beside them, and — with -trace 1
// — per-layer rigs and a traced run of each workload. See README.md in this
// directory for the metric glossary and how the numbers interact.
//
// Usage, from the repo root:
//
//	go run ./benchmark [-seed N] [-trace 1]      every workload, every metric
//	go run ./benchmark -workload NAME ...        one workload, as the driver runs it
//	go run ./benchmark -aa                       the traced set twice, in fresh processes, compared
//	go run ./benchmark -repin                    rewrite pins.json from this run
//
// The last line of every run is one JSON object: correct, attempted, failed
// and the metrics. BENCHMARK.json's command (bash benchmark/run.sh) builds
// this package and execs it with the driver's flags.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// runSeconds is the default measuring budget, BENCHMARK.json's run_seconds.
const runSeconds = 10

func main() {
	var (
		opt       = options{size: full}
		workload  = flag.String("workload", "", "run this one workload the way the driver does: bare metric names in the result line, end-to-end or (with -trace 1) per-layer")
		subset    = flag.String("workloads", "", "comma-separated subset for local iteration (echoed in the output)")
		traceFlag = flag.Int("trace", 0, "1 adds the per-layer rigs and the traced run; with -workload, prints the per-layer metrics instead of the end-to-end ones")
		aa        = flag.Bool("aa", false, "A/A self-check: run the traced set twice, each in a fresh process, and fail unless the two agree")
		repin     = flag.Bool("repin", false, "rewrite benchmark/pins.json from this run's virtual results (seed 1 only)")
	)
	flag.Int64Var(&opt.seed, "seed", pinSeed, "seeds the engine, the KV key/op stream, the page order and the hop order")
	flag.Float64Var(&opt.seconds, "seconds", runSeconds, "measuring budget per workload: timed reps repeat until it is spent (at least 3)")
	flag.IntVar(&opt.reps, "reps", 0, "fix the number of timed reps, for local iteration (echoed in the output)")
	flag.Parse()

	selected := workloads()
	if *workload != "" {
		*subset = *workload
	}
	if *subset != "" {
		selected = nil
		for _, name := range strings.Split(*subset, ",") {
			w, ok := findWorkload(name)
			if !ok {
				fail("unknown workload %q", name)
			}
			selected = append(selected, w)
		}
	}
	fmt.Printf("popbench seed=%d seconds=%g reps=%s workloads=%s trace=%d %s GOMAXPROCS=%d nproc=%d\n",
		opt.seed, opt.seconds, orAuto(opt.reps), orAll(*subset), *traceFlag, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	switch {
	case *repin:
		if opt.seed != pinSeed {
			fail("-repin needs -seed %d: pins exist for that seed only", pinSeed)
		}
		doRepin(selected, opt)
	case *aa:
		args := []string{"-trace", "1", "-seed", fmt.Sprint(opt.seed), "-seconds", fmt.Sprint(opt.seconds), "-reps", fmt.Sprint(opt.reps), "-workloads", *subset}
		if !runAA(args) {
			os.Exit(1)
		}
	default:
		// The driver (-workload) reads one kind of metric per run, so it
		// gets only that kind; a full run measures both when traced.
		traced := *traceFlag == 1
		set := runSet(selected, opt, !traced || *workload == "", traced)
		set.result(*workload).print()
		if !set.ok {
			os.Exit(1)
		}
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "popbench: "+format+"\n", args...)
	os.Exit(2)
}

func orAuto(reps int) string {
	if reps == 0 {
		return "auto"
	}
	return fmt.Sprint(reps)
}

func orAll(subset string) string {
	if subset == "" {
		return "all"
	}
	return subset
}

// resultSet is everything one pass over the selected workloads measured.
type resultSet struct {
	ok       bool
	outcomes map[string]*outcome // untraced, by workload
	traces   map[string]*outcome // traced, by workload
	rigs     *rigSet
}

// runSet prints every metric it measures: with untraced the end-to-end
// metrics of each selected workload, with traced the rigs and then each
// workload's traced run.
func runSet(selected []workloadDef, opt options, untraced, traced bool) *resultSet {
	set := &resultSet{ok: true, outcomes: make(map[string]*outcome), traces: make(map[string]*outcome)}
	if untraced {
		for _, w := range selected {
			oc := measure(w, opt)
			set.outcomes[w.name] = oc
			set.ok = set.ok && oc.correct()
			printOutcome(oc, opt)
		}
	}
	if !traced {
		return set
	}
	var err error
	set.rigs, err = runRigs()
	if err != nil {
		fmt.Printf("rigs: FAILED: %v\n", err)
		set.ok = false
	}
	fmt.Println("per-layer rigs (host clock, median of batches)")
	for _, m := range rigMetrics {
		printMetric("rig", m, set.rigs.Values[m.Name], "")
	}
	if err := writeJSON("rigs.trace.json", set.rigs.Spans); err != nil {
		fmt.Printf("rigs: FAILED: %v\n", err)
		set.ok = false
	}
	for _, w := range selected {
		tc := traceWorkload(w, opt, set.rigs.Values)
		set.traces[w.name] = tc
		set.ok = set.ok && tc.correct()
		fmt.Printf("traced run %s: failed/attempted %d/%d\n", w.name, tc.Failed, tc.Attempted)
		for _, m := range traceMetrics {
			note := ""
			if strings.HasPrefix(m.Name, "core.op_virt_us") {
				note = fmt.Sprintf("n=%d", tc.OpsTimed)
			}
			printMetric(w.name, m, tc.Values[m.Name], note)
		}
		for _, p := range tc.Problems {
			fmt.Printf("  FAILED CHECK %s: %s\n", w.name, p)
		}
	}
	return set
}

func printMetric(scope string, m metricDef, v float64, note string) {
	fmt.Printf("  %-13s %-34s %14.6g %-6s %s\n", scope, m.Name, v, m.Unit, note)
}

func printOutcome(oc *outcome, opt options) {
	pin := "no pin at this seed or size"
	if opt.seed == pinSeed && opt.size == full {
		pin = "virtual result equals pin"
		if !oc.Pinned {
			pin = "VIRTUAL RESULT DIFFERS FROM PIN (reported, not failed; -repin only if the model was meant to move)"
		}
	}
	fmt.Printf("workload %s: failed/attempted %d/%d, %d timed reps, %s\n", oc.Workload, oc.Failed, oc.Attempted, len(oc.Walls), pin)
	for _, m := range endToEnd {
		note := ""
		if m.Name == "wall_s" {
			d := oc.Wall
			note = fmt.Sprintf("q1 %.4g q3 %.4g min %.4g max %.4g n=%d reps %.4g", d.Q1, d.Q3, d.Min, d.Max, d.N, oc.Walls)
		}
		printMetric(oc.Workload, m, oc.Values[m.Name], note)
	}
	if oc.warm.Tables == nil {
		fmt.Printf("  %-13s %-34s %14.6f %-6s virtual clock, exact\n", oc.Workload, "virt_ms", float64(oc.warm.Virt.Nanoseconds())/1e6, "ms")
	}
	for _, p := range oc.Problems {
		fmt.Printf("  FAILED CHECK %s: %s\n", oc.Workload, p)
	}
}

// metricValue is one metric in a result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of every run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders the set. With only set to a workload it is the driver's
// object for that workload: bare metric names, end-to-end or per-layer
// depending on which kind ran. Otherwise every metric of every scope, named
// "<workload>/<metric>" or "rig/<metric>" (the A/A check reads this form).
func (set *resultSet) result(only string) result {
	res := result{Correct: set.ok, Metrics: make(map[string]metricValue)}
	put := func(scope string, defs []metricDef, values map[string]float64) {
		for _, m := range defs {
			name := m.Name
			if only == "" {
				name = scope + "/" + name
			}
			res.Metrics[name] = metricValue{values[m.Name], m.Unit}
		}
	}
	for name, oc := range set.outcomes {
		res.Attempted, res.Failed = res.Attempted+oc.Attempted, res.Failed+oc.Failed
		put(name, endToEnd, oc.Values)
	}
	for name, tc := range set.traces {
		res.Attempted, res.Failed = res.Attempted+tc.Attempted, res.Failed+tc.Failed
		put(name, traceMetrics, tc.Values)
	}
	if set.rigs != nil {
		put("rig", rigMetrics, set.rigs.Values)
	}
	return res
}

func (res result) print() {
	line, err := json.Marshal(res)
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(string(line))
}

// runAA is the A/A self-check: the same binary runs the full traced set
// twice, each time in a fresh process as the driver would, and the two must
// agree — end-to-end metrics within their bounds in both directions, every
// exact metric equal.
func runAA(args []string) bool {
	exe, err := os.Executable()
	if err != nil {
		fail("%v", err)
	}
	var sets [2]result
	for i := range sets {
		fmt.Printf("A/A set %d\n", i+1)
		var out bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &out), os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sets[i]); err != nil {
			fail("A/A set %d printed no result (%v): %v", i+1, runErr, err)
		}
		if runErr != nil || !sets[i].Correct {
			fmt.Printf("A/A: set %d failed its own checks\n", i+1)
			return false
		}
	}
	defs := make(map[string]metricDef)
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		defs[m.Name] = m
	}
	names := make([]string, 0, len(sets[0].Metrics))
	for name := range sets[0].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	ok := true
	for _, name := range names {
		m := defs[name[strings.Index(name, "/")+1:]]
		x, y := sets[0].Metrics[name].Value, sets[1].Metrics[name].Value
		verdict := "ok"
		switch {
		case m.Exact && x != y:
			verdict = "NOT EQUAL"
		case m.Bound > 0 && (m.worseBy(x, y) > m.Bound || m.worseBy(y, x) > m.Bound):
			verdict = fmt.Sprintf("OUTSIDE BOUND %.0f%%", 100*m.Bound)
		case !m.Exact && m.Bound == 0:
			verdict = "not judged (host clock, no bound)"
		}
		ok = ok && (verdict == "ok" || strings.HasPrefix(verdict, "not judged"))
		fmt.Printf("  A/A %-48s %14.6g %14.6g %-6s %s\n", name, x, y, m.Unit, verdict)
	}
	if ok {
		fmt.Println("A/A: the two sets agree")
	} else {
		fmt.Println("A/A: FAILED")
	}
	return ok
}

// doRepin runs each selected workload once and rewrites its pins.
func doRepin(selected []workloadDef, opt options) {
	reps := make(map[string]rep)
	for _, w := range selected {
		r, err := w.run(opt.seed, opt.size, hooks{})
		if err != nil || r.Failed > 0 {
			fail("repin %s: failed/attempted %d/%d: %v", w.name, r.Failed, r.Attempted, err)
		}
		reps[w.name] = r
		fmt.Printf("repinned %s\n", w.name)
	}
	if err := pinned.repin(reps); err != nil {
		fail("repin: %v", err)
	}
}

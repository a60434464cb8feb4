// Command benchtable regenerates the tables and figures of the
// reconstructed evaluation. Each experiment boots fresh simulated machines,
// runs deterministic workloads, and prints the series/table the paper
// reports.
//
// Usage:
//
//	benchtable [-scale quick|full] [-exp all|T1,F4,...] [-list] [-reps N] [-trace] [-traceout DIR] [-json FILE]
//	           [-cpuprofile FILE] [-memprofile FILE]
//
// With -reps N, each selected experiment runs N times and the command exits
// 1 if any rep's output (at full precision) differs from the first rep's;
// the host generation time is reported as the minimum and median over the
// reps.
//
// With -json FILE, a machine-readable snapshot of every selected experiment
// — id, title, host generation nanoseconds (minimum and median over the
// reps), and the structured table/series data — is written to FILE; checked
// in per PR as BENCH_<n>.json, it gives the perf trajectory a diffable
// history.
//
// With -cpuprofile/-memprofile, host CPU and allocation profiles of the
// selected experiments are written for `go tool pprof`; `make profile
// EXP=F5b` wraps this for one experiment.
//
// With -trace, experiments that support causal tracing (T1, T2, F2) run with
// a span collector attached and print a critical-path attribution table per
// operation kind after the normal output; -traceout additionally writes each
// experiment's spans as Chrome trace_event JSON (<ID>.trace.json), loadable
// in chrome://tracing or Perfetto. Tracing reads only virtual timestamps the
// run already produced, so the normal tables are unchanged (the golden-table
// test in internal/bench checks this at both scales).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/prof"
	"repro/internal/trace"
)

// jsonExperiment is one experiment's machine-readable snapshot: identity,
// host-side generation cost, and the structured table/series data (which
// carries the per-experiment latency and fault/trace counters the text
// output prints).
type jsonExperiment struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// GenNS and GenNSMedian are the minimum and median wall-clock
	// nanoseconds spent generating the experiment on the host, over -reps
	// runs: a trajectory, judged by nothing.
	GenNS       int64 `json:"gen_ns"`
	GenNSMedian int64 `json:"gen_ns_median"`
	// Data is the experiment's output: a stats.Table or stats.Series in its
	// tagged JSON form, or a plain string for outputs without one.
	Data any `json:"data"`
}

// jsonSnapshot is the -json output document.
type jsonSnapshot struct {
	Scale       string           `json:"scale"`
	Experiments []jsonExperiment `json:"experiments"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is the command behind main: it parses args, writes the tables to
// stdout and diagnostics to stderr, and returns the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchtable", flag.ContinueOnError)
	scaleFlag := fs.String("scale", "full", "experiment scale: quick or full")
	expFlag := fs.String("exp", "all", "comma-separated experiment IDs, or 'all'")
	listFlag := fs.Bool("list", false, "list available experiments and exit")
	reps := fs.Int("reps", 1, "run each selected experiment N times; exit 1 if any rep's output differs from the first")
	traceFlag := fs.Bool("trace", false, "attach the causal tracer and print critical-path attribution tables")
	traceDir := fs.String("traceout", "", "with -trace, write Chrome trace_event JSON per experiment into this directory")
	jsonOut := fs.String("json", "", "also write a machine-readable snapshot of every selected experiment to this file")
	profile := prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *reps < 1 {
		fmt.Fprintf(os.Stderr, "benchtable: -reps %d: want at least 1\n", *reps)
		return 2
	}
	if *traceDir != "" && !*traceFlag {
		fmt.Fprintf(os.Stderr, "benchtable: -traceout writes the spans -trace records: it needs -trace\n")
		return 2
	}

	if *listFlag {
		for _, e := range bench.Experiments() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var scale bench.Scale
	switch *scaleFlag {
	case "quick":
		scale = bench.Quick
	case "full":
		scale = bench.Full
	default:
		fmt.Fprintf(os.Stderr, "benchtable: unknown scale %q (want quick or full)\n", *scaleFlag)
		return 2
	}

	var selected []bench.Experiment
	if *expFlag == "all" {
		selected = bench.Experiments()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			exp, ok := bench.Find(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "benchtable: unknown experiment %q (use -list)\n", id)
				return 2
			}
			selected = append(selected, exp)
		}
	}

	stopProfile, err := profile.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtable: %v\n", err)
		return 2
	}
	failed := 0
	snapshot := jsonSnapshot{Scale: *scaleFlag, Experiments: []jsonExperiment{}}
	for _, exp := range selected {
		r, err := repeat(exp, scale, *reps, *traceFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtable: %s failed: %v\n", exp.ID, err)
			failed++
			continue
		}
		gen, median := r.gens[0], (r.gens[(*reps-1)/2]+r.gens[*reps/2])/2
		if *jsonOut != "" {
			snapshot.Experiments = append(snapshot.Experiments, jsonExperiment{ID: exp.ID, Title: exp.Title,
				GenNS: gen.Nanoseconds(), GenNSMedian: median.Nanoseconds(), Data: data(r.out)})
		}
		took := fmt.Sprint(gen.Round(time.Millisecond))
		if *reps > 1 {
			took = fmt.Sprintf("%v min, %v median of %d reps", gen.Round(time.Millisecond), median.Round(time.Millisecond), *reps)
		}
		fmt.Fprintf(stdout, "### %s — %s (generated in %s)\n\n%s\n", exp.ID, exp.Title, took, r.out)
		if *traceFlag {
			if r.col == nil {
				fmt.Fprintf(stdout, "(no traced variant for %s)\n\n", exp.ID)
			} else if err := printAttribution(stdout, exp.ID, r.col, *traceDir); err != nil {
				fmt.Fprintf(os.Stderr, "benchtable: trace for %s: %v\n", exp.ID, err)
				failed++
			}
		}
	}
	if err := stopProfile(); err != nil {
		fmt.Fprintf(os.Stderr, "benchtable: %v\n", err)
		failed++
	}
	if *jsonOut != "" {
		if err := writeSnapshot(*jsonOut, &snapshot); err != nil {
			fmt.Fprintf(os.Stderr, "benchtable: json: %v\n", err)
			failed++
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// repeated is one experiment's first output, traced when -trace asked for it
// and the experiment has a traced variant, with every rep's host generation
// time in ascending order.
type repeated struct {
	out  fmt.Stringer
	col  *trace.Collector
	gens []time.Duration
}

// repeat runs exp n times and fails unless every rep's output equals the
// first's in its snapshot form, which holds a Series at full precision
// where its text prints three significant digits.
func repeat(exp bench.Experiment, scale bench.Scale, n int, traced bool) (*repeated, error) {
	r := &repeated{}
	var first []byte
	for i := 0; i < n; i++ {
		start := time.Now()
		var (
			out fmt.Stringer
			col *trace.Collector
			err error
		)
		if traced && exp.RunTraced != nil {
			out, col, err = exp.RunTraced(scale)
		} else {
			out, err = exp.Run(scale)
		}
		if err != nil {
			return nil, err
		}
		r.gens = append(r.gens, time.Since(start))
		form, err := json.Marshal(data(out))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			r.out, r.col, first = out, col, form
		} else if !bytes.Equal(form, first) {
			return nil, fmt.Errorf("rep %d output differs from rep 1", i+1)
		}
	}
	slices.Sort(r.gens)
	return r, nil
}

// data is an output's snapshot form: a stats.Table or stats.Series in its
// tagged JSON form, any other output as its text.
func data(out fmt.Stringer) any {
	if _, ok := out.(json.Marshaler); ok {
		return out
	}
	return out.String()
}

// writeSnapshot writes the machine-readable run snapshot as indented JSON.
func writeSnapshot(path string, snap *jsonSnapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// printAttribution prints one critical-path table per root operation kind in
// the collector, and optionally writes the full span set as Chrome
// trace_event JSON.
func printAttribution(w io.Writer, id string, col *trace.Collector, traceDir string) error {
	for _, root := range col.RootNames() {
		att := col.CriticalPath(root)
		if att.Count == 0 || att.Total == 0 {
			continue
		}
		fmt.Fprintf(w, "%s\n", att.Table())
	}
	fmt.Fprintf(w, "(%d spans traced)\n\n", col.Len())
	if traceDir == "" {
		return nil
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(traceDir, id+".trace.json"))
	if err != nil {
		return err
	}
	defer f.Close()
	return col.WriteChromeTrace(f)
}

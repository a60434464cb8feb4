// Command benchtable regenerates the tables and figures of the
// reconstructed evaluation. Each experiment boots fresh simulated machines,
// runs deterministic workloads, and prints the series/table the paper
// reports.
//
// Usage:
//
//	benchtable [-scale quick|full] [-exp all|T1,F4,...] [-list] [-trace] [-traceout DIR] [-json FILE]
//	           [-cpuprofile FILE] [-memprofile FILE]
//
// With -json FILE, a machine-readable snapshot of every selected experiment
// — id, title, host generation nanoseconds, and the structured table/series
// data — is written to FILE; checked in per PR as BENCH_<n>.json, it gives
// the perf trajectory a diffable history.
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
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
	// GenNS is wall-clock nanoseconds spent generating the experiment on
	// the host: one unrepeated reading, recorded as a trajectory, judged by
	// nothing.
	GenNS int64 `json:"gen_ns"`
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
	traceFlag := fs.Bool("trace", false, "attach the causal tracer and print critical-path attribution tables")
	traceDir := fs.String("traceout", "", "with -trace, write Chrome trace_event JSON per experiment into this directory")
	jsonOut := fs.String("json", "", "also write a machine-readable snapshot of every selected experiment to this file")
	profile := prof.Register(fs)
	if err := fs.Parse(args); err != nil {
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
		start := time.Now()
		var (
			out fmt.Stringer
			col *trace.Collector
			err error
		)
		if *traceFlag && exp.RunTraced != nil {
			out, col, err = exp.RunTraced(scale)
		} else {
			out, err = exp.Run(scale)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtable: %s failed: %v\n", exp.ID, err)
			failed++
			continue
		}
		elapsed := time.Since(start)
		if *jsonOut != "" {
			var data any = out
			if _, ok := out.(json.Marshaler); !ok {
				data = out.String()
			}
			snapshot.Experiments = append(snapshot.Experiments,
				jsonExperiment{ID: exp.ID, Title: exp.Title, GenNS: elapsed.Nanoseconds(), Data: data})
		}
		fmt.Fprintf(stdout, "### %s — %s (generated in %v)\n\n%s\n", exp.ID, exp.Title, elapsed.Round(time.Millisecond), out)
		if *traceFlag {
			if col == nil {
				fmt.Fprintf(stdout, "(no traced variant for %s)\n\n", exp.ID)
			} else if err := printAttribution(stdout, exp.ID, col, *traceDir); err != nil {
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

// Command benchtable regenerates the tables and figures of the
// reconstructed evaluation. Each experiment boots fresh simulated machines,
// runs deterministic workloads, and prints the series/table the paper
// reports.
//
// Usage:
//
//	benchtable [-scale quick|full] [-exp all|T1,F4,...] [-list] [-trace] [-traceout DIR] [-json FILE]
//	           [-cpuprofile FILE] [-memprofile FILE]
//	benchtable -compare OLD.json NEW.json
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
// With -compare, two such snapshots are diffed as a behaviour gate: an
// experiment present in both whose `data` bytes differ fails the run with
// exit 1. gen_ns is printed old -> new as information only (host time is
// popbench's job, see benchmark/README.md). CI runs it as `make
// bench-compare` against the last checked-in snapshot.
//
// With -trace, experiments that support causal tracing (T1, T2, F2) run with
// a span collector attached and print a critical-path attribution table per
// operation kind after the normal output; -traceout additionally writes each
// experiment's spans as Chrome trace_event JSON (<ID>.trace.json), loadable
// in chrome://tracing or Perfetto. Tracing reads only virtual timestamps the
// run already produced, so the normal tables are unchanged.
package main

import (
	"bytes"
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
	// tagged JSON form, or a plain string for outputs without one. It stays
	// raw so -compare can tell two snapshots' tables apart byte for byte.
	Data json.RawMessage `json:"data"`
}

// jsonSnapshot is the -json output document.
type jsonSnapshot struct {
	Scale       string           `json:"scale"`
	Experiments []jsonExperiment `json:"experiments"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is the command behind main: it parses args, writes the tables or the
// comparison to stdout and diagnostics to stderr, and returns the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchtable", flag.ContinueOnError)
	scaleFlag := fs.String("scale", "full", "experiment scale: quick or full")
	expFlag := fs.String("exp", "all", "comma-separated experiment IDs, or 'all'")
	listFlag := fs.Bool("list", false, "list available experiments and exit")
	csvDir := fs.String("csv", "", "also write each experiment as CSV into this directory")
	traceFlag := fs.Bool("trace", false, "attach the causal tracer and print critical-path attribution tables")
	traceDir := fs.String("traceout", "", "with -trace, write Chrome trace_event JSON per experiment into this directory")
	jsonOut := fs.String("json", "", "also write a machine-readable snapshot of every selected experiment to this file")
	compareFlag := fs.Bool("compare", false, "compare two -json snapshots (OLD NEW) and fail when an experiment's data differs")
	profile := prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *compareFlag {
		if fs.NArg() != 2 {
			fmt.Fprintf(os.Stderr, "benchtable: -compare needs exactly two snapshot files (old new)\n")
			return 2
		}
		return compareSnapshots(stdout, fs.Arg(0), fs.Arg(1))
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
			raw, err := json.Marshal(data)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchtable: json for %s: %v\n", exp.ID, err)
				failed++
			} else {
				snapshot.Experiments = append(snapshot.Experiments,
					jsonExperiment{ID: exp.ID, Title: exp.Title, GenNS: elapsed.Nanoseconds(), Data: raw})
			}
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
		if *csvDir != "" {
			if err := writeCSV(*csvDir, exp.ID, out); err != nil {
				fmt.Fprintf(os.Stderr, "benchtable: csv for %s: %v\n", exp.ID, err)
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

// compareSnapshots diffs two -json snapshots by experiment ID, writes one
// line per experiment to w and returns the process exit code: 1 when any
// experiment present in both has different data bytes, 2 when the snapshots
// are unreadable or not comparable, else 0. An experiment present on one
// side only is a note, not a failure.
func compareSnapshots(w io.Writer, oldPath, newPath string) int {
	oldSnap, err := readSnapshot(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtable: %v\n", err)
		return 2
	}
	newSnap, err := readSnapshot(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtable: %v\n", err)
		return 2
	}
	if oldSnap.Scale != newSnap.Scale {
		fmt.Fprintf(os.Stderr, "benchtable: scale mismatch: %s is %q, %s is %q — not comparable\n",
			oldPath, oldSnap.Scale, newPath, newSnap.Scale)
		return 2
	}
	oldByID := make(map[string]jsonExperiment, len(oldSnap.Experiments))
	for _, e := range oldSnap.Experiments {
		oldByID[e.ID] = e
	}
	changed, shared := 0, 0
	seen := make(map[string]bool, len(newSnap.Experiments))
	for _, e := range newSnap.Experiments {
		seen[e.ID] = true
		base, ok := oldByID[e.ID]
		if !ok {
			fmt.Fprintf(w, "%-4s %12s -> %12v  (new experiment, no baseline)\n",
				e.ID, "-", time.Duration(e.GenNS).Round(time.Millisecond))
			continue
		}
		shared++
		verdict := "data equal"
		if !bytes.Equal(compactJSON(base.Data), compactJSON(e.Data)) {
			verdict = "DATA CHANGED"
			changed++
		}
		fmt.Fprintf(w, "%-4s %12v -> %12v  %s\n",
			e.ID,
			time.Duration(base.GenNS).Round(time.Millisecond),
			time.Duration(e.GenNS).Round(time.Millisecond),
			verdict)
	}
	for _, e := range oldSnap.Experiments {
		if !seen[e.ID] {
			fmt.Fprintf(w, "%-4s dropped from the new snapshot\n", e.ID)
		}
	}
	if changed > 0 {
		fmt.Fprintf(os.Stderr, "benchtable: %d of %d shared experiment(s) changed their data vs %s\n", changed, shared, oldPath)
		return 1
	}
	fmt.Fprintf(w, "benchtable: all %d shared experiments have data byte-equal to %s (gen_ns is informational)\n", shared, oldPath)
	return 0
}

// compactJSON strips the indentation a snapshot file was written with, so
// two data blocks compare by content. Malformed input compares as itself.
func compactJSON(raw json.RawMessage) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return raw
	}
	return buf.Bytes()
}

// readSnapshot loads one -json snapshot file.
func readSnapshot(path string) (*jsonSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap jsonSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &snap, nil
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

// csvWriter is implemented by stats.Table and stats.Series.
type csvWriter interface {
	CSV(w io.Writer) error
}

func writeCSV(dir, id string, out fmt.Stringer) error {
	cw, ok := out.(csvWriter)
	if !ok {
		return fmt.Errorf("experiment output has no CSV form")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return cw.CSV(f)
}

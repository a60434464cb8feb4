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
// With -compare, two such snapshots are diffed as a regression gate: an
// experiment whose gen_ns grew more than 10% over the old snapshot (and by
// more than an absolute noise floor of 10ms, so sub-millisecond experiments
// cannot trip on scheduler jitter) fails the run with exit 1. CI runs it as
// `make bench-compare` against the previous PR's checked-in snapshot.
//
// With -trace, experiments that support causal tracing (T1, T2, F2) run with
// a span collector attached and print a critical-path attribution table per
// operation kind after the normal output; -traceout additionally writes each
// experiment's spans as Chrome trace_event JSON (<ID>.trace.json), loadable
// in chrome://tracing or Perfetto. Tracing reads only virtual timestamps the
// run already produced, so the normal tables are unchanged.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
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
	// the host — the ns/op trajectory ROADMAP item 5 tracks per PR.
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

func main() {
	scaleFlag := flag.String("scale", "full", "experiment scale: quick or full")
	expFlag := flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
	listFlag := flag.Bool("list", false, "list available experiments and exit")
	csvDir := flag.String("csv", "", "also write each experiment as CSV into this directory")
	traceFlag := flag.Bool("trace", false, "attach the causal tracer and print critical-path attribution tables")
	traceDir := flag.String("traceout", "", "with -trace, write Chrome trace_event JSON per experiment into this directory")
	jsonOut := flag.String("json", "", "also write a machine-readable snapshot of every selected experiment to this file")
	compareFlag := flag.Bool("compare", false, "compare two -json snapshots (OLD NEW) and fail on gen_ns regressions")
	engineFlag := flag.String("engine", "serial", "simulation engine the experiments boot: serial or parallel (identical virtual-time results either way)")
	profile := prof.Register()
	flag.Parse()

	switch *engineFlag {
	case "serial", "parallel":
		bench.EngineKind = *engineFlag
	default:
		fmt.Fprintf(os.Stderr, "benchtable: unknown engine %q (want serial or parallel)\n", *engineFlag)
		os.Exit(2)
	}

	if *compareFlag {
		if flag.NArg() != 2 {
			fmt.Fprintf(os.Stderr, "benchtable: -compare needs exactly two snapshot files (old new)\n")
			os.Exit(2)
		}
		os.Exit(compareSnapshots(flag.Arg(0), flag.Arg(1)))
	}

	if *listFlag {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var scale bench.Scale
	switch *scaleFlag {
	case "quick":
		scale = bench.Quick
	case "full":
		scale = bench.Full
	default:
		fmt.Fprintf(os.Stderr, "benchtable: unknown scale %q (want quick or full)\n", *scaleFlag)
		os.Exit(2)
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
				os.Exit(2)
			}
			selected = append(selected, exp)
		}
	}

	stopProfile, err := profile.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtable: %v\n", err)
		os.Exit(2)
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
			je := jsonExperiment{ID: exp.ID, Title: exp.Title, GenNS: elapsed.Nanoseconds()}
			if m, ok := out.(json.Marshaler); ok {
				je.Data = m
			} else {
				je.Data = out.String()
			}
			snapshot.Experiments = append(snapshot.Experiments, je)
		}
		fmt.Printf("### %s — %s (generated in %v)\n\n%s\n", exp.ID, exp.Title, elapsed.Round(time.Millisecond), out)
		if *traceFlag {
			if col == nil {
				fmt.Printf("(no traced variant for %s)\n\n", exp.ID)
			} else if err := printAttribution(exp.ID, col, *traceDir); err != nil {
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
		os.Exit(1)
	}
}

// Regression thresholds for -compare: both must be exceeded to fail, so a
// real slowdown (relative) on a measurable experiment (absolute) is what
// trips the gate, not wall-clock jitter on a 2ms run.
const (
	regressRatio = 1.10
	regressFloor = 10 * time.Millisecond
)

// compareSnapshots diffs two -json snapshots by experiment ID and returns
// the process exit code: 1 when any experiment regressed, else 0.
func compareSnapshots(oldPath, newPath string) int {
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
	regressed := 0
	seen := make(map[string]bool, len(newSnap.Experiments))
	for _, e := range newSnap.Experiments {
		seen[e.ID] = true
		base, ok := oldByID[e.ID]
		if !ok {
			fmt.Printf("%-4s %12s -> %12v  (new experiment, no baseline)\n",
				e.ID, "-", time.Duration(e.GenNS).Round(time.Millisecond))
			continue
		}
		delta := float64(e.GenNS)/float64(base.GenNS) - 1
		verdict := "ok"
		if float64(e.GenNS) > float64(base.GenNS)*regressRatio && e.GenNS-base.GenNS > int64(regressFloor) {
			verdict = "REGRESSED"
			regressed++
		}
		fmt.Printf("%-4s %12v -> %12v  %+6.1f%%  %s\n",
			e.ID,
			time.Duration(base.GenNS).Round(time.Millisecond),
			time.Duration(e.GenNS).Round(time.Millisecond),
			delta*100, verdict)
	}
	for _, e := range oldSnap.Experiments {
		if !seen[e.ID] {
			fmt.Printf("%-4s dropped from the new snapshot\n", e.ID)
		}
	}
	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "benchtable: %d experiment(s) regressed >%d%% (and >%v absolute) vs %s\n",
			regressed, int(math.Round((regressRatio-1)*100)), regressFloor, oldPath)
		return 1
	}
	fmt.Printf("benchtable: no experiment regressed >%d%% vs %s\n", int(math.Round((regressRatio-1)*100)), oldPath)
	return 0
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
func printAttribution(id string, col *trace.Collector, traceDir string) error {
	for _, root := range col.RootNames() {
		att := col.CriticalPath(root)
		if att.Count == 0 || att.Total == 0 {
			continue
		}
		fmt.Printf("%s\n", att.Table())
	}
	fmt.Printf("(%d spans traced)\n\n", col.Len())
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

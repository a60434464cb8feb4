// Command popcornvet lints the replicated-kernel simulator for determinism
// and protocol bugs that ordinary go vet cannot see. It type-checks the tree
// it is pointed at (go/types, standard library from GOROOT source) and every
// rule matches declarations, not names:
//
//	simtime   wall-clock time, global math/rand, bare go statements and
//	          real sync primitives inside sim-managed packages
//	msgproto  a msg.Type of two msg.Kinds; kinds and msg.Type members never
//	          sent; discarded RPC errors
//	locksend  sim.Mutex held across a blocking fabric send or RPC, or a
//	          call that reaches one
//	lockorder sim-lock acquisition-order cycles (hierarchy inversions)
//	          and undocumented same-class lock nesting
//	dirver    pageGrant/pageInval composite literals that leave the
//	          directory Version unstamped (error replies exempt)
//	kernlocal event-context code that touches another kernel's state
//	          (cluster table, peer endpoints) instead of going through msg
//	detorder  nondeterministic ordering in event context: map ranges
//	          whose order escapes, non-total sort.Slice comparators,
//	          wall-clock/global-rand outside the sim-managed set
//	exportuse an exported function, variable or method in internal/ that
//	          no other package of the module (tests included) uses
//
// Usage:
//
//	go run ./cmd/popcornvet ./...
//	go run ./cmd/popcornvet -only simtime,locksend ./internal/...
//	go run ./cmd/popcornvet -json . > vet.json
//	go run ./cmd/popcornvet -allowlist . > allowlist.json
//	go run ./cmd/popcornvet -escapes .
//	go run ./cmd/popcornvet -escapes -write .
//
// Findings print as file:line:col: [rule] message (or, with -json, as a
// JSON array of {file, line, col, analyzer, message} objects on stdout)
// and the exit status is 1 when any exist; a tree that does not type-check
// is exit 2. Suppress a deliberate violation with a justified directive on
// (or just above) the offending line, or in the enclosing function's doc
// comment:
//
//	//popcornvet:allow <rule> <reason>
//
// A directive without a reason, naming no analyzer, or suppressing nothing
// is itself a finding.
//
// -allowlist inventories those directives instead of running the analyzers:
// it prints every well-formed waiver as {file, line, analyzer,
// justification} JSON, so CI archives the accepted-exception population
// next to the findings artifact.
//
// -escapes is the static half of the hot-path allocation contract
// (DESIGN.md §12): it runs `go build -gcflags=-m` over the hot packages,
// keeps the heap-escape diagnostics that land inside functions marked
// //popcornvet:hotpath or reachable from one in their package (a
// //popcornvet:coldpath function stops the closure), and compares them
// against the checked-in baseline (ESCAPES.json). Any difference — a new,
// grown, shrunk or vanished escape — fails with exit 1; -write regenerates
// the baseline instead of comparing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"repro/internal/vetcheck"
)

// jsonFinding is the machine-readable form of one finding, stable for CI
// artifact consumers.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// escapePackages are the packages whose hot paths the escape gate compiles:
// the event engine, the message fabric and the tracing layer — the code the
// AllocsPerRun guards pin at runtime.
var escapePackages = []string{"./internal/sim", "./internal/msg", "./internal/trace"}

// escapeBaselinePath is where the accepted hot-path escape set lives,
// relative to the module root popcornvet runs from.
const escapeBaselinePath = "ESCAPES.json"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: findings and reports go to stdout, diagnostics to
// stderr, and the result is the exit status — 0 clean, 1 findings or escape
// differences, 2 when the command could not do what was asked.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("popcornvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	allowlist := fs.Bool("allowlist", false, "inventory //popcornvet:allow waivers as JSON instead of running analyzers")
	escapes := fs.Bool("escapes", false, "compare `go build -gcflags=-m` hot-path heap escapes against "+escapeBaselinePath)
	write := fs.Bool("write", false, "with -escapes: regenerate "+escapeBaselinePath+" instead of comparing")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: popcornvet [-only rules] [-json] [-allowlist] [-escapes [-write]] [path ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	roots := fs.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	for i, r := range roots {
		// Accept go-style ./... patterns: the loader walks recursively anyway.
		r = strings.TrimSuffix(r, "...")
		r = strings.TrimSuffix(r, "/")
		if r == "" {
			r = "."
		}
		roots[i] = r
	}

	analyzers := vetcheck.Analyzers()
	if *only != "" {
		want := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var picked []vetcheck.Analyzer
		for _, a := range analyzers {
			if want[a.Name()] {
				picked = append(picked, a)
				delete(want, a.Name())
			}
		}
		for name := range want {
			fmt.Fprintf(stderr, "popcornvet: unknown analyzer %q\n", name)
			return 2
		}
		analyzers = picked
	}

	tree, err := vetcheck.Load(roots)
	if err != nil {
		fmt.Fprintf(stderr, "popcornvet: %v\n", err)
		return 2
	}

	if *allowlist {
		return writeJSON(stdout, stderr, vetcheck.Allowlist(tree))
	}
	if *escapes {
		return runEscapeGate(tree, *write, stdout, stderr)
	}

	findings := vetcheck.Run(tree, analyzers)
	if *asJSON {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Analyzer: f.Rule,
				Message:  f.Message,
			})
		}
		if code := writeJSON(stdout, stderr, out); code != 0 {
			return code
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "popcornvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// writeJSON encodes v indented on stdout; the status is 2 on encoder failure.
func writeJSON(stdout, stderr io.Writer, v any) int {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(stderr, "popcornvet: %v\n", err)
		return 2
	}
	return 0
}

// runEscapeGate compiles the hot packages with escape diagnostics on,
// normalizes the hot-path escapes, and either rewrites the baseline (write)
// or diffs against it, with status 1 on any difference.
func runEscapeGate(tree *vetcheck.Tree, write bool, stdout, stderr io.Writer) int {
	spans := vetcheck.HotSpans(tree)
	if len(spans) == 0 {
		fmt.Fprintln(stderr, "popcornvet: -escapes found no //popcornvet:hotpath functions in the loaded tree")
		return 2
	}
	args := append([]string{"build", "-gcflags=-m"}, escapePackages...)
	cmd := exec.Command("go", args...)
	// The compiler prints escape diagnostics on stderr; go build replays
	// them from the cache on unchanged packages, so no cache-busting is
	// needed for a stable view.
	raw, err := cmd.CombinedOutput()
	if err != nil {
		fmt.Fprintf(stderr, "popcornvet: go build -gcflags=-m failed: %v\n%s", err, raw)
		return 2
	}
	current := vetcheck.ParseEscapes(string(raw), spans)
	baseline := vetcheck.EscapeBaseline{Packages: escapePackages, Escapes: current}

	if write {
		data, err := json.MarshalIndent(baseline, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "popcornvet: %v\n", err)
			return 2
		}
		if err := os.WriteFile(escapeBaselinePath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "popcornvet: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "popcornvet: wrote %s (%d hot-path escape entr%s across %d hot functions)\n",
			escapeBaselinePath, len(current), plural(len(current), "y", "ies"), len(spans))
		return 0
	}

	data, err := os.ReadFile(escapeBaselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "popcornvet: read baseline: %v (regenerate with -escapes -write)\n", err)
		return 2
	}
	var have vetcheck.EscapeBaseline
	if err := json.Unmarshal(data, &have); err != nil {
		fmt.Fprintf(stderr, "popcornvet: parse %s: %v\n", escapeBaselinePath, err)
		return 2
	}
	diffs := vetcheck.CompareEscapes(have.Escapes, current)
	for _, s := range diffs {
		fmt.Fprintln(stdout, s)
	}
	if len(diffs) > 0 {
		fmt.Fprintf(stderr, "popcornvet: %d hot-path escape difference(s) vs %s\n", len(diffs), escapeBaselinePath)
		return 1
	}
	fmt.Fprintf(stdout, "popcornvet: hot-path escapes match %s (%d entr%s, %d hot functions)\n",
		escapeBaselinePath, len(current), plural(len(current), "y", "ies"), len(spans))
	return 0
}

// plural picks the singular or plural suffix for n.
func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

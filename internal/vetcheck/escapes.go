package vetcheck

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file is the static half of the escape-baseline gate (DESIGN.md §12):
// the compiler's own escape analysis (`go build -gcflags=-m`) is the ground
// truth for what actually reaches the heap, and the checked-in ESCAPES.json
// pins the set of heap escapes inside declared hot paths. The hotalloc
// analyzer catches allocating *constructs* syntactically; this gate catches
// what the analyzer cannot see — a parameter that starts escaping because a
// callee changed, an interface conversion the inliner stopped eliding — by
// failing CI the moment the compiler reports a heap escape on a hot path
// that the baseline does not already account for. cmd/popcornvet -escapes
// runs the compiler and drives the comparison; the parsing and diffing live
// here so they are unit-testable without a toolchain.

// HotSpan is the source extent of one hot-path-reachable function: the
// escape gate keeps only compiler diagnostics that land inside one.
type HotSpan struct {
	File string
	Func string
	From int // first line of the declaration
	To   int // last line of the declaration
}

// HotSpans returns the extents of every function the hotalloc closure
// considers hot, across all packages, sorted by file then starting line.
func HotSpans(t *Tree) []HotSpan {
	var out []HotSpan
	nodes, _ := t.hot()
	for _, n := range nodes {
		out = append(out, HotSpan{
			File: normPath(n.file.Name),
			Func: n.fn.Name(),
			From: t.Fset.Position(n.decl.Pos()).Line,
			To:   t.Fset.Position(n.decl.End()).Line,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].From < out[j].From
	})
	return out
}

// Escape is one normalized hot-path escape diagnostic. The key is (file,
// function, diagnostic text) with source positions stripped, so edits that
// merely move a site up or down the file do not churn the baseline; Count
// disambiguates genuinely new sites with an already-known diagnostic.
type Escape struct {
	File  string `json:"file"`
	Func  string `json:"func"`
	Diag  string `json:"diag"`
	Count int    `json:"count"`
}

// EscapeBaseline is the schema of ESCAPES.json: the package set the
// compiler ran over and the accepted hot-path escapes.
type EscapeBaseline struct {
	Packages []string `json:"packages"`
	Escapes  []Escape `json:"escapes"`
}

// ParseEscapes filters raw `go build -gcflags=-m` output down to heap
// escapes inside hot spans and aggregates them into normalized entries,
// sorted by file, function, diagnostic.
func ParseEscapes(raw string, spans []HotSpan) []Escape {
	type key struct{ file, fn, diag string }
	counts := make(map[key]int)
	for _, line := range strings.Split(raw, "\n") {
		file, srcLine, diag, ok := splitDiag(line)
		if !ok {
			continue
		}
		if !strings.Contains(diag, "escapes to heap") && !strings.Contains(diag, "moved to heap") {
			continue
		}
		for _, sp := range spans {
			if sp.File == file && sp.From <= srcLine && srcLine <= sp.To {
				counts[key{file, sp.Func, diag}]++
				break
			}
		}
	}
	out := make([]Escape, 0, len(counts))
	for k, n := range counts {
		out = append(out, Escape{File: k.file, Func: k.fn, Diag: k.diag, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		return a.Diag < b.Diag
	})
	return out
}

// splitDiag parses one `file.go:line:col: message` diagnostic line.
func splitDiag(line string) (file string, srcLine int, diag string, ok bool) {
	idx := strings.Index(line, ".go:")
	if idx < 0 {
		return "", 0, "", false
	}
	file = normPath(line[:idx+3])
	rest := line[idx+4:]
	parts := strings.SplitN(rest, ":", 3)
	if len(parts) != 3 {
		return "", 0, "", false
	}
	n, err := strconv.Atoi(parts[0])
	if err != nil {
		return "", 0, "", false
	}
	return file, n, strings.TrimSpace(parts[2]), true
}

// normPath strips a leading "./" so tree file names and compiler
// diagnostics compare equal regardless of how the roots were spelled.
func normPath(p string) string { return strings.TrimPrefix(p, "./") }

// CompareEscapes diffs current hot-path escapes against the baseline. Every
// regression string is a new or grown escape and must fail the gate;
// improvements (baseline entries no longer present) are informational —
// the baseline should be regenerated to lock them in.
func CompareEscapes(baseline, current []Escape) (regressions, improvements []string) {
	type key struct{ file, fn, diag string }
	base := make(map[key]int, len(baseline))
	for _, e := range baseline {
		base[key{e.File, e.Func, e.Diag}] = e.Count
	}
	seen := make(map[key]bool, len(current))
	for _, e := range current {
		k := key{e.File, e.Func, e.Diag}
		seen[k] = true
		want, known := base[k]
		switch {
		case !known:
			regressions = append(regressions,
				fmt.Sprintf("%s: new heap escape in hot function %s: %q (%d site(s))", e.File, e.Func, e.Diag, e.Count))
		case e.Count > want:
			regressions = append(regressions,
				fmt.Sprintf("%s: heap escape %q in hot function %s grew from %d to %d site(s)", e.File, e.Diag, e.Func, want, e.Count))
		}
	}
	for _, e := range baseline {
		if !seen[key{e.File, e.Func, e.Diag}] {
			improvements = append(improvements,
				fmt.Sprintf("%s: baseline escape %q in %s no longer reported — regenerate the baseline to lock the win in", e.File, e.Diag, e.Func))
		}
	}
	return regressions, improvements
}

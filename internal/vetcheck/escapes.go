package vetcheck

import (
	"fmt"
	"go/ast"
	"sort"
	"strconv"
	"strings"
)

// This file is the static half of the hot-path allocation contract
// (DESIGN.md §12): the compiler's own escape analysis (`go build -gcflags=-m`)
// is the ground truth for what reaches the heap, and the checked-in
// ESCAPES.json is the exact set of heap escapes accepted inside declared hot
// paths. A new, grown, shrunk or vanished entry fails the gate, so a site
// whose diagnostic is already known cannot slip in under a stale count. The
// runtime half is the AllocsPerRun pins in each package and
// TestMemoryFlatInRunLength, which judge what the compiler cannot: whether an
// allocation happens per event, and whether amortized growth stays bounded.
// cmd/popcornvet -escapes runs the compiler and drives the comparison; the
// hot set, the parsing and the diffing live here so they are unit-testable
// without a toolchain.

// Markers recognised in function doc comments. They declare scope, not
// suppression, so they do not share the popcornvet:allow prefix. A
// //popcornvet:hotpath function is a hot root: it runs once per simulated
// event or per message. A function is hot when the call graph (reach.go)
// reaches it from a root without leaving the root's package and without
// entering a //popcornvet:coldpath function (error construction, reports and
// other O(1)-per-run paths); a method value stored in a field and called
// later is reached from where it was named.
const (
	hotMarker  = "popcornvet:hotpath"
	coldMarker = "popcornvet:coldpath"
)

// docMarked reports whether fn's doc comment contains the given marker on a
// line of its own.
func docMarked(fd *ast.FuncDecl, marker string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == marker {
			return true
		}
	}
	return false
}

// hot returns the hot functions of the tree in source order.
func (t *Tree) hot() (nodes []*funcNode) {
	g := t.calls()
	var all, roots []*funcNode
	for _, pkg := range t.Pkgs {
		pkg.funcs(func(_ *File, fd *ast.FuncDecl) {
			all = append(all, g.node(pkg, fd))
			if docMarked(fd, hotMarker) {
				roots = append(roots, g.node(pkg, fd))
			}
		})
	}
	reached := g.closure(roots, func(from, to *funcNode) bool {
		return to.pkg == from.pkg && !docMarked(to.decl, coldMarker)
	})
	for _, n := range all {
		if reached[n] {
			nodes = append(nodes, n)
		}
	}
	return nodes
}

// HotSpan is the source extent of one hot-path-reachable function: the
// escape gate keeps only compiler diagnostics that land inside one.
type HotSpan struct {
	File string
	Func string
	From int // first line of the declaration
	To   int // last line of the declaration
}

// HotSpans returns the extents of every hot function, across all packages,
// sorted by file then starting line.
func HotSpans(t *Tree) []HotSpan {
	var out []HotSpan
	for _, n := range t.hot() {
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

// CompareEscapes diffs current hot-path escapes against the baseline and
// returns one line per difference; any difference fails the gate. A new or
// grown escape is an allocation nobody accepted. A shrunk or vanished one
// leaves slack a new site with the same diagnostic could fill unseen, the
// way a stale waiver would, so it must be locked in with
// `make escapes-baseline`.
func CompareEscapes(baseline, current []Escape) (diffs []string) {
	type key struct{ file, fn, diag string }
	base := make(map[key]int, len(baseline))
	for _, e := range baseline {
		base[key{e.File, e.Func, e.Diag}] = e.Count
	}
	const relock = " — regenerate the baseline with `make escapes-baseline`"
	seen := make(map[key]bool, len(current))
	for _, e := range current {
		k := key{e.File, e.Func, e.Diag}
		seen[k] = true
		want, known := base[k]
		switch {
		case !known:
			diffs = append(diffs,
				fmt.Sprintf("%s: new heap escape in hot function %s: %q (%d site(s))", e.File, e.Func, e.Diag, e.Count))
		case e.Count > want:
			diffs = append(diffs,
				fmt.Sprintf("%s: heap escape %q in hot function %s grew from %d to %d site(s)", e.File, e.Diag, e.Func, want, e.Count))
		case e.Count < want:
			diffs = append(diffs,
				fmt.Sprintf("%s: heap escape %q in hot function %s shrank from %d to %d site(s)%s", e.File, e.Diag, e.Func, want, e.Count, relock))
		}
	}
	for _, e := range baseline {
		if !seen[key{e.File, e.Func, e.Diag}] {
			diffs = append(diffs,
				fmt.Sprintf("%s: baseline escape %q in %s no longer reported%s", e.File, e.Diag, e.Func, relock))
		}
	}
	return diffs
}

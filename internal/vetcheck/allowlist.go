package vetcheck

import "sort"

// Waiver is one well-formed //popcornvet:allow directive in the tree:
// where it is, which analyzer it silences, and the written justification.
// cmd/popcornvet -allowlist dumps these as JSON so CI can archive the full
// set of accepted exceptions next to the findings artifact — the waiver
// population is reviewable history, not scattered comments.
type Waiver struct {
	File          string `json:"file"`
	Line          int    `json:"line"`
	Analyzer      string `json:"analyzer"`
	Justification string `json:"justification"`
}

// Allowlist collects every well-formed allow-directive in the tree, sorted
// by file, line, analyzer. Malformed directives are excluded: they are
// already findings in their own right (the "directive" meta-rule), not
// waivers.
func Allowlist(t *Tree) []Waiver {
	var out []Waiver
	for _, d := range t.directives() {
		if d.malformed == "" {
			out = append(out, Waiver{File: normPath(d.pos.Filename), Line: d.pos.Line, Analyzer: d.rule, Justification: d.reason})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

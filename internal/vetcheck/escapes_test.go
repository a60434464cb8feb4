package vetcheck

import (
	"strings"
	"testing"
)

// TestHotSpansCoverRootAndCallees pins the hot closure the escape gate
// filters the compiler's diagnostics by: each case is one rule of it.
func TestHotSpansCoverRootAndCallees(t *testing.T) {
	for _, tc := range []struct {
		name  string
		files map[string]string
		want  string // hot functions, by file then line
	}{{
		// The closure follows calls from the marked root into its own
		// package, and nowhere else: not into another package, not to a
		// coldpath function, not to code nothing hot names.
		name: "package-local",
		files: map[string]string{
			"internal/kernel/hot.go": `package kernel

import "repro/internal/vm"

// deliver is the per-message path.
//
//popcornvet:hotpath
func deliver(n int) {
	record(n)
	vm.Touch(n)
}

func record(n int) {
	_ = n
}

//popcornvet:coldpath
func report(n int) {
	_ = n
}

func unreached(n int) {
	_ = n
}
`,
			"internal/vm/vm.go": `package vm

func Touch(n int) { _ = n }
`,
		},
		want: "deliver,record",
	}, {
		// A coldpath callee is not hot, and neither is what only it calls.
		name: "coldpath-stops",
		files: map[string]string{
			"internal/kernel/cold.go": `package kernel

//popcornvet:hotpath
func run() {
	if bad() {
		report()
	}
}

func bad() bool { return false }

// report renders the failure; the run is over.
//
//popcornvet:coldpath
func report() { helper() }

func helper() { _ = make([]int, 8) }
`,
		},
		want: "run,bad",
	}, {
		// A method stored in a field and called through it later is hot from
		// where it was named (msg's r.each = r.callOne).
		name: "method-value-in-field",
		files: map[string]string{
			"internal/kernel/run.go": `package kernel

type run struct {
	each func(n int)
	buf  []int
}

//popcornvet:hotpath
func (r *run) start() {
	r.each = r.callOne
	r.each(1)
}

func (r *run) callOne(n int) { r.buf = append(r.buf, n) }
`,
		},
		want: "start,callOne",
	}, {
		// What a callback scheduled from a hot function calls is hot.
		name: "func-literal-callback",
		files: map[string]string{
			"internal/kernel/cb.go": `package kernel

type engine struct{}

func (e *engine) Schedule(d int, fn func()) {}

//popcornvet:hotpath
func (e *engine) wake(n int) {
	e.Schedule(0, func() { fill(n) })
}

func fill(n int) { _ = make([]int, n) }
`,
		},
		want: "Schedule,wake,fill",
	}, {
		// *_test.go files are never loaded, so their markers root nothing.
		name: "test-files-ignored",
		files: map[string]string{
			"internal/kernel/plain.go": `package kernel

func setup(n int) []int { return make([]int, n) }
`,
			"internal/kernel/plain_test.go": `package kernel

//popcornvet:hotpath
func helperForTests(n int) []int { return setup(n) }
`,
		},
	}, {
		name: "no-markers-no-spans",
		files: map[string]string{
			"internal/kernel/plain.go": `package kernel

// deliver runs per message but nobody marked it.
func deliver(n int) []int { return setup(n) }

func setup(n int) []int { return make([]int, n) }
`,
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			tree, err := loadSource(tc.files)
			if err != nil {
				t.Fatalf("loadSource: %v", err)
			}
			var names []string
			for _, sp := range HotSpans(tree) {
				names = append(names, sp.Func)
				if sp.From <= 0 || sp.To < sp.From {
					t.Errorf("span %s has bad extent [%d, %d]", sp.Func, sp.From, sp.To)
				}
			}
			if got := strings.Join(names, ","); got != tc.want {
				t.Fatalf("hot spans = %q, want %q", got, tc.want)
			}
		})
	}
}

func TestParseEscapesFiltersToHotSpans(t *testing.T) {
	spans := []HotSpan{
		{File: "internal/kernel/hot.go", Func: "deliver", From: 5, To: 9},
		{File: "internal/kernel/hot.go", Func: "record", From: 11, To: 14},
	}
	raw := strings.Join([]string{
		"# repro/internal/kernel",
		"internal/kernel/hot.go:6:10: ev escapes to heap",
		"internal/kernel/hot.go:7:10: moved to heap: x",
		"internal/kernel/hot.go:8:10: ev escapes to heap",             // same diag, second site: count 2
		"internal/kernel/hot.go:12:3: make([]int, n) escapes to heap", // in record
		"internal/kernel/hot.go:20:3: cold escapes to heap",           // outside every span
		"internal/kernel/hot.go:6:12: func literal does not escape",   // not an escape
		"internal/kernel/other.go:6:12: y escapes to heap",            // other file, no span
		"not a diagnostic line",
	}, "\n")
	got := ParseEscapes(raw, spans)
	want := []Escape{
		{File: "internal/kernel/hot.go", Func: "deliver", Diag: "ev escapes to heap", Count: 2},
		{File: "internal/kernel/hot.go", Func: "deliver", Diag: "moved to heap: x", Count: 1},
		{File: "internal/kernel/hot.go", Func: "record", Diag: "make([]int, n) escapes to heap", Count: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d escapes, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("escape %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestCompareEscapes(t *testing.T) {
	baseline := []Escape{
		{File: "a.go", Func: "f", Diag: "x escapes to heap", Count: 1},
		{File: "a.go", Func: "f", Diag: "moved to heap: y", Count: 2},
		{File: "a.go", Func: "f", Diag: "z escapes to heap", Count: 3},
		{File: "b.go", Func: "g", Diag: "z escapes to heap", Count: 1},
	}
	current := []Escape{
		{File: "a.go", Func: "f", Diag: "x escapes to heap", Count: 1}, // unchanged
		{File: "a.go", Func: "f", Diag: "moved to heap: y", Count: 3},  // grew
		{File: "a.go", Func: "f", Diag: "z escapes to heap", Count: 2}, // shrank
		{File: "c.go", Func: "h", Diag: "w escapes to heap", Count: 1}, // new
		// b.go entry gone
	}
	// A shrunk count and a vanished entry fail like a new or grown one: the
	// slack they leave would let a new site with a known diagnostic pass.
	wantDiffs(t, CompareEscapes(baseline, current),
		"grew from 2 to 3",
		"shrank from 3 to 2 site(s) — regenerate the baseline with `make escapes-baseline`",
		"new heap escape in hot function h",
		"no longer reported — regenerate the baseline with `make escapes-baseline`",
	)
}

func TestCompareEscapesCleanMatch(t *testing.T) {
	set := []Escape{{File: "a.go", Func: "f", Diag: "x escapes to heap", Count: 1}}
	wantDiffs(t, CompareEscapes(set, set))
}

func wantDiffs(t *testing.T, got []string, wantSubstrings ...string) {
	t.Helper()
	if len(got) != len(wantSubstrings) {
		t.Fatalf("got %d differences, want %d:\n%s", len(got), len(wantSubstrings), strings.Join(got, "\n"))
	}
	for i, want := range wantSubstrings {
		if !strings.Contains(got[i], want) {
			t.Errorf("difference %d = %q, want substring %q", i, got[i], want)
		}
	}
}

func TestAllowlist(t *testing.T) {
	tree, err := loadSource(map[string]string{
		"internal/kernel/w.go": `package kernel

// grow has a justified exception.
//
//popcornvet:allow detorder per-entry work is independent of visit order
func grow() {
	//popcornvet:allow simtime harness-only timer
	helper()
	//popcornvet:allow bogusrule not a real analyzer
	//popcornvet:allow detorder
	helper()
}

func helper() {}
`,
	})
	if err != nil {
		t.Fatalf("loadSource: %v", err)
	}
	got := Allowlist(tree)
	if len(got) != 2 {
		t.Fatalf("got %d waivers, want 2 (unknown rule and missing justification excluded): %+v", len(got), got)
	}
	if got[0].Analyzer != "detorder" || got[0].Justification != "per-entry work is independent of visit order" {
		t.Errorf("waiver 0 = %+v", got[0])
	}
	if got[1].Analyzer != "simtime" || got[1].Justification != "harness-only timer" {
		t.Errorf("waiver 1 = %+v", got[1])
	}
	if got[0].Line >= got[1].Line {
		t.Errorf("waivers not sorted by line: %d then %d", got[0].Line, got[1].Line)
	}
}

// TestEscapeBaselineIsCurrent would require invoking the compiler; the CLI
// gate (make escapes) covers that end. Here we only pin that the shipped
// tree still declares hot spans at all, so the gate cannot silently become
// a no-op if annotations are refactored away.
func TestShippedTreeHasHotSpans(t *testing.T) {
	tree, err := Load([]string{"../.."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	spans := HotSpans(tree)
	if len(spans) < 20 {
		t.Fatalf("shipped tree has %d hot spans, want >= 20 (sim engine, msg fabric, trace collector)", len(spans))
	}
	// Load ran from this package's directory, so file names carry a ../../
	// prefix; match on the path segment.
	pkgs := map[string]bool{}
	for _, sp := range spans {
		for _, want := range []string{"internal/sim/", "internal/msg/", "internal/trace/"} {
			if strings.Contains(sp.File, want) {
				pkgs[want] = true
			}
		}
	}
	for _, want := range []string{"internal/sim/", "internal/msg/", "internal/trace/"} {
		if !pkgs[want] {
			t.Errorf("no hot spans under %s; the escape gate lost a package", want)
		}
	}
}

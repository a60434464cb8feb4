package vetcheck

import (
	"strings"
	"testing"
)

func TestHotAllocPositives(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/kernel/hot.go": `package kernel

import "fmt"

// dispatch runs once per event.
//
//popcornvet:hotpath
func dispatch(n int, buf []byte, q []int) {
	m := make([]int, n)
	p := new(int)
	s := fmt.Sprintf("n=%d", n)
	s = s + "!"
	b := []byte(s)
	t := string(buf)
	q = append(q, n)
	cb := func() { _ = n }
	for i := 0; i < n; i++ {
		defer cb()
	}
	_, _, _, _, _, _ = m, p, s, b, t, q
}
`,
	}, HotAlloc{})
	wantRules(t, got,
		"make allocates",
		"new allocates",
		"fmt.Sprintf allocates",
		"string concatenation allocates",
		"conversion to slice copies",
		"conversion to string copies",
		"append may grow",
		"function literal allocates a closure",
		"defer inside a loop allocates",
	)
	for _, f := range got {
		if !strings.Contains(f.Message, "//popcornvet:hotpath function dispatch") {
			t.Errorf("finding %q does not attribute the hotpath function", f.Message)
		}
	}
}

func TestHotAllocCompositeLiterals(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/kernel/lit.go": `package kernel

type ev struct{ at int }

//popcornvet:hotpath
func alloc(n int) {
	a := &ev{at: n}       // one finding: the &literal, not the inner literal too
	v := ev{at: n}        // value struct literal stays on the stack: clean
	s := []int{n, n}      // slice literal allocates
	arr := [2]int{n, n}   // fixed-size array is a value: clean
	m := map[int]int{n: n}
	_, _, _, _, _ = a, v, s, arr, m
}
`,
	}, HotAlloc{})
	wantRules(t, got,
		"&composite-literal allocates",
		"slice literal allocates",
		"map literal allocates",
	)
}

// TestHotAllocReachability: the closure follows package-local calls from the
// annotated root into helpers, attributes findings to the root, stops at
// //popcornvet:coldpath, and ignores functions nothing hot reaches.
func TestHotAllocReachability(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/kernel/reach.go": `package kernel

//popcornvet:hotpath
func deliver(n int) { record(n) }

func record(n int) { _ = make([]int, n) }

// buildError runs once, when the run is already lost.
//
//popcornvet:coldpath
func buildError(n int) string { return string(rune(n)) }

func unreached(n int) { _ = make([]int, n) }
`,
	}, HotAlloc{})
	wantRules(t, got, "make allocates")
	if !strings.Contains(got[0].Message, "in record, reached from //popcornvet:hotpath root deliver") {
		t.Errorf("finding %q does not attribute helper to its root", got[0].Message)
	}
}

// TestHotAllocColdpathStops: a coldpath callee may allocate freely, and the
// closure does not continue through it into its own callees.
func TestHotAllocColdpathStops(t *testing.T) {
	got := findingsFor(t, map[string]string{
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
	}, HotAlloc{})
	if len(got) != 0 {
		t.Fatalf("want no findings past the coldpath stop, got:\n%s", renderFindings(got))
	}
}

// TestHotAllocWaiver: the standard allow-directive forms (own line and doc
// comment) suppress findings, and Run still reports the unwaived rest.
func TestHotAllocWaiver(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/kernel/waived.go": `package kernel

// grow recycles in steady state; the miss path is the justified exception.
//
//popcornvet:hotpath
func grow(free []*int) []*int {
	//popcornvet:allow hotalloc free-list cold miss; steady state recycles
	free = append(free, new(int))
	free = append(free, new(int))
	return free
}
`,
	}, HotAlloc{})
	// The directive covers its own line plus the next: the first append and
	// its new() are waived, the copy-pasted second line is not.
	wantRules(t, got,
		"append may grow",
		"new allocates",
	)
}

// TestHotAllocIgnoresTestFilesAndUnannotatedCode: no hotpath markers means
// no roots, and *_test.go files are never in scope even when annotated.
func TestHotAllocIgnoresTestFilesAndUnannotatedCode(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/kernel/plain.go": `package kernel

func setup(n int) []int { return make([]int, n) }
`,
		"internal/kernel/plain_test.go": `package kernel

//popcornvet:hotpath
func helperForTests(n int) []int { return make([]int, n) }
`,
	}, HotAlloc{})
	if len(got) != 0 {
		t.Fatalf("want no findings without non-test hotpath roots, got:\n%s", renderFindings(got))
	}
}

// TestHotAllocFuncLitCallback: a closure scheduled from a hot function is
// itself flagged (the closure allocation) and its body is walked as hot
// code, because ast.Inspect descends into the literal.
func TestHotAllocFuncLitCallback(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/kernel/cb.go": `package kernel

type engine struct{}

func (e *engine) Schedule(d int, fn func()) {}

//popcornvet:hotpath
func (e *engine) wake(n int) {
	e.Schedule(0, func() { _ = make([]int, n) })
}
`,
	}, HotAlloc{})
	wantRules(t, got,
		"function literal allocates a closure",
		"make allocates",
	)
}

// TestHotAllocMethodValueInField: a method stored in a field as a method
// value and called through the field later is hot from where it was named —
// msg's r.each = r.callOne, which a call-site-only closure misses, leaving
// the whole RPC path outside the contract.
func TestHotAllocMethodValueInField(t *testing.T) {
	got := findingsFor(t, map[string]string{
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
	}, HotAlloc{})
	wantRules(t, got, "append may grow")
	if !strings.Contains(got[0].Message, "in callOne, reached from //popcornvet:hotpath root start") {
		t.Errorf("finding %q does not attribute callOne to its root", got[0].Message)
	}
}

// TestHotAllocUsesOperandTypes: whether + concatenates and whether a
// conversion copies is the operands' types, not their spelling.
func TestHotAllocUsesOperandTypes(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/kernel/label.go": `package kernel

type name string

type raw []byte

//popcornvet:hotpath
func label(a, b name, n, m int, r raw) (name, int, raw, name) {
	const prefix = "k" + "-"
	return a + b, n + m, raw(r), name(prefix)
}
`,
	}, HotAlloc{})
	wantRules(t, got, "string concatenation allocates")
}

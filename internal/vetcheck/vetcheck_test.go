package vetcheck

import (
	"strings"
	"testing"
)

func TestDirectiveSuppressesOwnAndNextLine(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/kernel/a.go": `package kernel

import "time"

func f() {
	//popcornvet:allow simtime the harness stamps real boot time here
	_ = time.Now()
	time.Sleep(time.Second) // not covered: two lines below the directive
}
`,
	}, SimTime{})
	wantRules(t, got, "time.Sleep")
}

func TestDirectiveOnSameLine(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/kernel/a.go": `package kernel

import "time"

func f() {
	_ = time.Now() //popcornvet:allow simtime the harness stamps real boot time here
}
`,
	}, SimTime{})
	if len(got) != 0 {
		t.Fatalf("want no findings, got:\n%s", renderFindings(got))
	}
}

func TestDirectiveInFuncDocCoversWholeFunction(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/kernel/a.go": `package kernel

import "time"

// f is the harness clock shim.
//
//popcornvet:allow simtime this shim is the single sanctioned wall-clock read
func f() {
	_ = time.Now()
	time.Sleep(time.Second)
}

func g() {
	_ = time.Now() // a different function: still flagged
}
`,
	}, SimTime{})
	wantRules(t, got, "time.Now")
}

func TestDirectiveScopedToRule(t *testing.T) {
	// An allow for one rule must not swallow another rule's finding on the
	// same line.
	got := findingsFor(t, map[string]string{
		"internal/kernel/a.go": `package kernel

import "time"

func f() {
	//popcornvet:allow locksend wrong rule for this violation
	_ = time.Now()
}
`,
	}, SimTime{})
	wantRules(t, got, "time.Now")
}

func TestMalformedDirectiveIsItselfAFinding(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/kernel/a.go": `package kernel

func f() {
	//popcornvet:allow simtime
	_ = 1
}
`,
	}, SimTime{})
	if len(got) != 1 || got[0].Rule != "directive" {
		t.Fatalf("want one directive finding, got:\n%s", renderFindings(got))
	}
	if !strings.Contains(got[0].Message, "malformed") {
		t.Errorf("message = %q, want malformed-directive explanation", got[0].Message)
	}
}

func TestUnknownAnalyzerNameInDirectiveIsAFinding(t *testing.T) {
	// A typoed rule name would otherwise suppress nothing while looking like
	// a justified exception; the directive itself must be reported and the
	// real finding must survive.
	got := findingsFor(t, map[string]string{
		"internal/kernel/a.go": `package kernel

import "time"

func f() {
	//popcornvet:allow simtmie transposed letters in the rule name
	_ = time.Now()
}
`,
	}, SimTime{})
	if len(got) != 2 {
		t.Fatalf("want the directive finding plus the live violation, got:\n%s", renderFindings(got))
	}
	if got[0].Rule != "directive" || !strings.Contains(got[0].Message, `"simtmie"`) {
		t.Errorf("first finding = %v, want unknown-analyzer directive report", got[0])
	}
	if got[1].Rule != "simtime" {
		t.Errorf("second finding = %v, want the undressed simtime violation", got[1])
	}
}

func TestDirectiveKnowsEveryShippedAnalyzer(t *testing.T) {
	// Every analyzer name must be accepted in a directive — a new analyzer
	// whose name is missing from knownRules would make its own escape hatch
	// unusable.
	known := knownRules()
	for _, a := range Analyzers() {
		if !known[a.Name()] {
			t.Errorf("knownRules() is missing analyzer %q", a.Name())
		}
	}
	for _, name := range []string{"kernlocal", "detorder"} {
		if !known[name] {
			t.Errorf("knownRules() is missing the kernel-locality analyzer %q", name)
		}
	}
}

func TestManagedSet(t *testing.T) {
	for _, name := range []string{"sim", "msg", "kernel", "vm", "threadgroup", "futex", "sched", "task", "workload", "smp", "multikernel", "osi"} {
		if !Managed(name) {
			t.Errorf("Managed(%q) = false, want true", name)
		}
	}
	for _, name := range []string{"main", "bench", "stats", "trace", "hw", "mem", "vetcheck"} {
		if Managed(name) {
			t.Errorf("Managed(%q) = true, want false", name)
		}
	}
}

// TestShippedTreeIsClean is the repo's own gate: the analyzers — including
// the kernel-locality suite (kernlocal, detorder) — must pass
// over the real source tree, so a regression fails `go test` even when
// nobody runs the CLI.
func TestShippedTreeIsClean(t *testing.T) {
	analyzers := Analyzers()
	names := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		names[a.Name()] = true
	}
	for _, want := range []string{"kernlocal", "detorder"} {
		if !names[want] {
			t.Fatalf("Analyzers() is missing %q; the shipped-tree gate would silently weaken", want)
		}
	}
	tree, err := Load([]string{"../..", "../../cmd", "../../examples"}[:1])
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got := Run(tree, analyzers); len(got) != 0 {
		t.Fatalf("popcornvet findings on the shipped tree:\n%s", renderFindings(got))
	}
}

func TestFindingString(t *testing.T) {
	tree, err := LoadSource(map[string]string{"internal/kernel/a.go": `package kernel

import "time"

func f() { _ = time.Now() }
`})
	if err != nil {
		t.Fatal(err)
	}
	got := Run(tree, Analyzers())
	if len(got) != 1 {
		t.Fatalf("got:\n%s", renderFindings(got))
	}
	s := got[0].String()
	if !strings.HasPrefix(s, "internal/kernel/a.go:5:16: [simtime]") {
		t.Errorf("String() = %q, want file:line:col: [rule] prefix", s)
	}
}

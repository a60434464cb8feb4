package vetcheck

import (
	"go/types"
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
		if !managed(name) {
			t.Errorf("Managed(%q) = false, want true", name)
		}
	}
	for _, name := range []string{"main", "bench", "stats", "trace", "hw", "mem", "vetcheck"} {
		if managed(name) {
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
	tree, err := Load([]string{"../.."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got := Run(tree, analyzers); len(got) != 0 {
		t.Fatalf("popcornvet findings on the shipped tree:\n%s", renderFindings(got))
	}
}

func TestFindingString(t *testing.T) {
	tree, err := loadSource(map[string]string{"internal/kernel/a.go": `package kernel

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

// A waiver that suppresses nothing is a finding: it reads as a justified
// exception while hiding the next real violation written in its scope. Only
// waivers for analyzers that ran are judged, so -only does not condemn the
// rest.
func TestStaleWaiverIsAFinding(t *testing.T) {
	files := map[string]string{
		"internal/kernel/a.go": `package kernel

import "time"

func f() time.Duration {
	//popcornvet:allow simtime the harness stamped real boot time here once
	return 3 * time.Millisecond
}

//popcornvet:allow locksend held across the RPC by design
func g() {}
`,
	}
	got := findingsFor(t, files, SimTime{})
	if len(got) != 1 || got[0].Rule != "directive" || !strings.Contains(got[0].Message, "allow simtime suppresses nothing") {
		t.Fatalf("want the stale simtime waiver reported (and the locksend one left alone), got:\n%s", renderFindings(got))
	}
	if got[0].Pos.Line != 6 {
		t.Errorf("reported at line %d, want the directive's own line 6", got[0].Pos.Line)
	}
	if got = findingsFor(t, files, LockSend{}); len(got) != 1 || !strings.Contains(got[0].Message, "allow locksend suppresses nothing") {
		t.Fatalf("want the stale locksend waiver reported, got:\n%s", renderFindings(got))
	}
}

// A tree that does not type-check does not load: there is no "could not
// tell, not flagged".
func TestLoadRejectsTreeThatDoesNotTypeCheck(t *testing.T) {
	for name, src := range map[string]string{
		"undefined name":  "package kernel\n\nfunc f() int { return missing }\n",
		"unknown import":  "package kernel\n\nimport \"repro/internal/absent\"\n\nvar _ = absent.X\n",
		"unused variable": "package kernel\n\nfunc f() { x := 1 }\n",
	} {
		if _, err := loadSource(map[string]string{"internal/kernel/a.go": src}); err == nil {
			t.Errorf("%s: loadSource succeeded, want a load error", name)
		}
	}
}

// TestAnchorsResolve looks up every declaration an analyzer keys on in the
// shipped tree, so renaming msg.Endpoint.Call or kernel.Cluster.Kernels
// fails here instead of silently blinding the rule that matches it.
func TestAnchorsResolve(t *testing.T) {
	tree, err := Load([]string{"../.."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(anchors) < 19 {
		t.Fatalf("only %d anchors registered; the analyzers' declare calls are gone", len(anchors))
	}
	for _, a := range anchors {
		var found types.Object
		for _, pkg := range tree.Pkgs {
			if pkg.Name != a.pkg || !strings.HasPrefix(pkg.path, "repro/internal/") {
				continue
			}
			if scope := pkg.tpkg.Scope(); a.recv == "" {
				found = scope.Lookup(a.name)
			} else if owner := scope.Lookup(a.recv); owner != nil {
				found, _, _ = types.LookupFieldOrMethod(types.NewPointer(owner.Type()), true, pkg.tpkg, a.name)
			}
		}
		if found == nil {
			t.Errorf("anchor %s.%s.%s does not resolve in the shipped tree", a.pkg, a.recv, a.name)
		}
	}
}

// A root below the module root loads as the package it is, importing the
// rest of the module on demand: `popcornvet .` from a package directory,
// `popcornvet ./internal/vm` from the top.
func TestLoadBelowModuleRoot(t *testing.T) {
	for root, want := range map[string]string{".": "repro/internal/vetcheck", "../futex": "repro/internal/futex"} {
		tree, err := Load([]string{root})
		if err != nil {
			t.Fatalf("Load(%q): %v", root, err)
		}
		if len(tree.Pkgs) != 1 || tree.Pkgs[0].path != want {
			t.Fatalf("Load(%q) = %d packages (first %+v), want the one package %s", root, len(tree.Pkgs), tree.Pkgs, want)
		}
		if root != "." && len(tree.deps) == 0 {
			t.Errorf("Load(%q) type-checked no in-module dependencies; futex imports msg, sim, vm", root)
		}
	}
}

package vetcheck

import "testing"

// exportUseFindings loads files as a module and runs ExportUse alone.
func exportUseFindings(t *testing.T, files map[string]string) []Finding {
	t.Helper()
	tree, err := loadSource(files)
	if err != nil {
		t.Fatalf("loadSource: %v", err)
	}
	return Run(tree, []Analyzer{ExportUse{}})
}

// kernelPkg declares one exported function, variable and method, and the
// unexported code that uses them: package-internal uses do not count.
const kernelPkg = `package kernel

var Budget = 3

type Frames struct{ n int }

func (f *Frames) Free() int { return f.n + Budget }

func Alloc() *Frames { return &Frames{} }

func use() int { return Alloc().Free() }
`

func TestExportUseUnusedExportsFail(t *testing.T) {
	got := exportUseFindings(t, map[string]string{
		"internal/kernel/kernel.go": kernelPkg,
		// The package's own tests use everything: still no outside use.
		"internal/kernel/kernel_test.go": `package kernel

import "testing"

func TestAll(t *testing.T) { _ = Alloc().Free() + Budget }
`,
		"cmd/tool/main.go": "package main\n\nfunc main() {}\n",
	})
	wantRules(t, got, "variable Budget", "method Frames.Free", "function Alloc")
}

func TestExportUseOutsideUsesPass(t *testing.T) {
	for name, user := range map[string]map[string]string{
		// benchmark/ is a package of the module like any other.
		"benchmark": {"benchmark/main.go": `package main

import "repro/internal/kernel"

func main() { _ = kernel.Alloc().Free() + kernel.Budget }
`},
		// Another package's tests count, in-package and external ones.
		"other package's test": {
			"internal/vm/vm.go": "package vm\n",
			"internal/vm/vm_test.go": `package vm

import "repro/internal/kernel"

var _ = kernel.Alloc
`,
			"internal/vm/ext_test.go": `package vm_test

import "repro/internal/kernel"

var _ = kernel.Budget + (*kernel.Frames).Free(nil)
`,
		},
	} {
		files := map[string]string{"internal/kernel/kernel.go": kernelPkg}
		for path, src := range user {
			files[path] = src
		}
		if got := exportUseFindings(t, files); len(got) != 0 {
			t.Errorf("%s: want no findings, got:\n%s", name, renderFindings(got))
		}
	}
}

// A method its type needs to satisfy an interface is called through the
// interface: a module interface, error, fmt.Stringer, json.Marshaler or the
// Unwrap that errors.Is asserts.
func TestExportUseInterfaceMethodsPass(t *testing.T) {
	got := exportUseFindings(t, map[string]string{
		"internal/kernel/kernel.go": `package kernel

type Op interface{ Apply() int }

type Add struct{}

func (Add) Apply() int { return 1 }

type Err struct{ cause error }

func (e *Err) Error() string   { return "kernel" }
func (e *Err) Unwrap() error   { return e.cause }
func (e *Err) String() string  { return e.Error() }
func (e *Err) Extra() int      { return 0 }
func (e *Err) MarshalJSON() ([]byte, error) { return nil, nil }

func run(o Op) int { return o.Apply() }
`,
	})
	wantRules(t, got, "method Err.Extra")
}

// An exported alias of an unexported type exports that type's methods.
func TestExportUseAliasedType(t *testing.T) {
	got := exportUseFindings(t, map[string]string{
		"internal/sim/sim.go": `package sim

type Engine = *engine

type engine struct{}

func (e *engine) Now() int  { return 0 }
func (e *engine) Step() int { return 1 }

func New() Engine { return &engine{} }
`,
		"cmd/tool/main.go": `package main

import "repro/internal/sim"

func main() { _ = sim.New().Now() }
`,
	})
	wantRules(t, got, "method Engine.Step")
}

// Only internal/ is held to the rule: a command's exports are its own.
func TestExportUseOnlyInternal(t *testing.T) {
	got := exportUseFindings(t, map[string]string{
		"pkg/lib/lib.go": "package lib\n\nfunc Unused() {}\n",
	})
	if len(got) != 0 {
		t.Fatalf("want no findings outside internal/, got:\n%s", renderFindings(got))
	}
}

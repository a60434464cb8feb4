package vetcheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The prose docs name code in backticks. A reference whose code is gone
// misdescribes the tree, so the shipped docs must resolve every one against
// the type-checked tree. Three shapes are checked:
//
//   - a Go file path with a directory part (`internal/sim/engine.go`, with or
//     without a `:line` suffix), relative to the module root or to internal/;
//   - a package-qualified chain (`sim.Engine`, `msg.Endpoint.Call`) whose
//     second name is exported;
//   - a type-qualified chain (`Proc.Sleep`, `Endpoint.node`), a call's
//     argument list ignored;
//   - a bare test, benchmark or fuzz target name (`TestGoldenTables`),
//     against the func declarations of the tree's _test.go files.
//
// A chain whose head names neither a package nor a type — a local variable
// in prose, a file name such as ROADMAP.md — says nothing checkable and is
// skipped.

var (
	docFile  = regexp.MustCompile("`([\\w.-]+(?:/[\\w.-]+)*/[\\w.-]+\\.go)(?::[\\d,-]+)?`")
	docChain = regexp.MustCompile("`([A-Za-z_]\\w*(?:\\.[A-Za-z_]\\w*)+)(?:\\([^`]*\\))?`")
	docTest  = regexp.MustCompile("`((?:Test|Benchmark|Fuzz)[A-Z_]\\w*)`")
)

// docScope indexes a tree's packages and type names by their plain names, and
// the names of its test functions.
type docScope struct {
	pkgs  map[string][]*types.Package
	types map[string][]*types.TypeName
	tests map[string]bool
}

func newDocScope(tree *Tree) *docScope {
	s := &docScope{pkgs: map[string][]*types.Package{}, types: map[string][]*types.TypeName{}}
	for _, pkg := range append(append([]*Package(nil), tree.Pkgs...), tree.deps...) {
		if pkg.tpkg == nil || pkg.Name == "main" {
			continue
		}
		s.pkgs[pkg.Name] = append(s.pkgs[pkg.Name], pkg.tpkg)
		scope := pkg.tpkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				s.types[name] = append(s.types[name], tn)
			}
		}
	}
	return s
}

// resolve reports whether chain's head names a package or a type (known) and,
// if so, whether some reading of the whole chain names a declaration (ok).
func (s *docScope) resolve(chain []string) (known, ok bool) {
	for _, pkg := range s.pkgs[chain[0]] {
		// A lowercase name after a package is as often a metric or trace
		// event (`msg.sent`, `vm.fault`) as code: only exported ones must
		// resolve.
		known = known || token.IsExported(chain[1])
		if obj := pkg.Scope().Lookup(chain[1]); obj != nil && walkMembers(obj, chain[2:]) {
			return true, true
		}
	}
	for _, tn := range s.types[chain[0]] {
		known = true
		if walkMembers(tn, chain[1:]) {
			return true, true
		}
	}
	return known, false
}

// walkMembers follows rest as field and method selections from obj's type.
func walkMembers(obj types.Object, rest []string) bool {
	if len(rest) == 0 {
		return true
	}
	if _, isFunc := obj.(*types.Func); isFunc {
		return false
	}
	member, _, _ := types.LookupFieldOrMethod(obj.Type(), true, obj.Pkg(), rest[0])
	return member != nil && walkMembers(member, rest[1:])
}

// unresolvedDocRefs returns every checked reference in doc that does not
// resolve, with root the module directory file paths are relative to.
func unresolvedDocRefs(s *docScope, root, doc string) []string {
	var bad []string
	for _, m := range docFile.FindAllStringSubmatch(doc, -1) {
		if !fileExists(filepath.Join(root, m[1])) && !fileExists(filepath.Join(root, "internal", m[1])) {
			bad = append(bad, m[1])
		}
	}
	for _, m := range docChain.FindAllStringSubmatch(doc, -1) {
		if strings.HasSuffix(m[1], ".go") {
			continue // a file name, not a selector
		}
		if known, ok := s.resolve(strings.Split(m[1], ".")); known && !ok {
			bad = append(bad, m[1])
		}
	}
	for _, m := range docTest.FindAllStringSubmatch(doc, -1) {
		if !s.tests[m[1]] {
			bad = append(bad, m[1])
		}
	}
	return bad
}

// testFuncs returns the names of the package-level funcs declared in the
// _test.go files under root, skipping the directories Load skips.
func testFuncs(root string) (map[string]bool, error) {
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if base := d.Name(); path != root && (strings.HasPrefix(base, ".") || base == "testdata" || base == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names[fn.Name.Name] = true
			}
		}
		return nil
	})
	return names, err
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// TestDocReferencesResolve checks README.md, ARCHITECTURE.md and DESIGN.md
// against the shipped tree.
func TestDocReferencesResolve(t *testing.T) {
	tree, err := Load([]string{"../.."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	s := newDocScope(tree)
	if s.tests, err = testFuncs("../.."); err != nil {
		t.Fatalf("testFuncs: %v", err)
	}
	for _, name := range []string{"README.md", "ARCHITECTURE.md", "DESIGN.md"} {
		doc, err := os.ReadFile(filepath.Join("../..", name))
		if err != nil {
			t.Fatal(err)
		}
		if bad := unresolvedDocRefs(s, "../..", string(doc)); len(bad) > 0 {
			t.Errorf("%s names code that does not exist: %s", name, strings.Join(bad, ", "))
		}
	}
}

// TestDocReferenceToDeletedCodeFails pins the check's teeth on a fixture
// tree: a doc naming a method, field, file or test that is gone fails, while
// live references and prose-local chains pass.
func TestDocReferenceToDeletedCodeFails(t *testing.T) {
	tree, err := loadSource(map[string]string{"internal/sim/engine.go": `package sim

type engine struct{ now int64 }

// Engine is the one engine type.
type Engine = *engine

func (e *engine) Spawn(name string) {}

type Proc struct{ e *engine }

func (p *Proc) Sleep() {}
`})
	if err != nil {
		t.Fatal(err)
	}
	s := newDocScope(tree)
	s.tests = map[string]bool{"TestSleep": true}
	doc := "Work starts with `Engine.Spawn(name)` or `sim.Engine`; a process calls `Proc.Sleep`, " +
		"reaches its engine through `Proc.e` and reads `e.now` (see `internal/vetcheck/load.go`; " +
		"the `sim.events` counter is a metric name; `TestSleep` tests it, `TestSleep/short` is a subtest). " +
		"Stale: `Engine.Lane`, `sim.GlobalLane`, `Proc.v.c`, `internal/sim/lane.go:12`, `BenchmarkLane`."
	got := strings.Join(unresolvedDocRefs(s, "../..", doc), ", ")
	if want := "internal/sim/lane.go, Engine.Lane, sim.GlobalLane, Proc.v.c, BenchmarkLane"; got != want {
		t.Fatalf("unresolved = %q, want %q", got, want)
	}
}

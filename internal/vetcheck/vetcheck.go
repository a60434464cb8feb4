// Package vetcheck implements popcornvet's static analyzers: determinism
// and protocol lint for the replicated-kernel simulator. The whole
// reproduction rests on the promise that a given seed and program order
// produce an identical schedule; one stray time.Now, bare go statement or
// real sync.Mutex inside sim-managed code silently destroys that and
// invalidates every benchmark figure. These checks make the rules
// mechanical.
//
// The analyzers are stdlib-only (go/ast, go/parser, go/token) and operate
// on a parsed Tree of packages, so they are unit-testable apart from the
// CLI (cmd/popcornvet). Violations can be suppressed with a justified
// directive:
//
//	//popcornvet:allow <rule> <reason>
//
// placed on the offending line, on the line above it, or in the doc
// comment of the enclosing function (which suppresses the rule for the
// whole function). A directive without a reason is itself a violation.
package vetcheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// File is one parsed source file.
type File struct {
	Name string // path as given to the loader
	AST  *ast.File
	Test bool // *_test.go
}

// Package groups the files of one directory-level package.
type Package struct {
	Name    string // package clause name
	Dir     string
	Managed bool // subject to the determinism rules
	Files   []*File
}

// Tree is the parsed forest the analyzers run over.
type Tree struct {
	Fset *token.FileSet
	Pkgs []*Package
	// callIdx caches the package-local function index shared by the
	// interprocedural analyzers (lockorder, kernlocal, detorder, hotalloc);
	// built lazily by calls().
	callIdx *callIndex
}

// Analyzer is one pluggable check.
type Analyzer interface {
	Name() string
	Check(t *Tree) []Finding
}

// Analyzers returns every built-in analyzer.
func Analyzers() []Analyzer {
	return []Analyzer{
		SimTime{}, MsgProto{}, LockSend{}, LockOrder{}, DirVer{},
		KernLocal{}, DetOrder{}, HotAlloc{},
	}
}

// knownRules are the rule names an allow-directive may legally name: every
// analyzer plus the directive meta-rule itself. A directive naming anything
// else suppresses nothing and is reported, so a typo cannot silently leave
// a violation live.
func knownRules() map[string]bool {
	rules := map[string]bool{"directive": true}
	for _, a := range Analyzers() {
		rules[a.Name()] = true
	}
	return rules
}

// managedPackages are the sim-managed package names: code in them executes
// under the simulation engine, so wall-clock time, bare goroutines, global
// randomness and real sync primitives are forbidden. The sim package itself
// is included: its internals earn explicit allow-directives instead of a
// blanket exemption.
var managedPackages = map[string]bool{
	"sim":         true,
	"msg":         true,
	"kernel":      true,
	"vm":          true,
	"threadgroup": true,
	"futex":       true,
	"sanitize":    true,
	"sched":       true,
	"task":        true,
	"workload":    true,
	"smp":         true,
	"multikernel": true,
	"osi":         true,
}

// Managed reports whether a package name is subject to the determinism
// rules.
func Managed(pkgName string) bool { return managedPackages[pkgName] }

// Load walks the given roots for .go files and parses them into a Tree.
// Directories named testdata and hidden directories are skipped.
func Load(roots []string) (*Tree, error) {
	fset := token.NewFileSet()
	byDir := make(map[string][]*File)
	pkgName := make(map[string]string)
	var dirs []string
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				// Never skip the walk root itself: a root given as ".." (or
				// any dot-prefixed relative path) must still be entered, or
				// Load returns an empty tree and every gate built on it
				// passes vacuously.
				if path == root {
					return nil
				}
				base := d.Name()
				if strings.HasPrefix(base, ".") || base == "testdata" || base == "vendor" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
			if err != nil {
				return err
			}
			dir := filepath.Dir(path)
			if _, seen := byDir[dir]; !seen {
				dirs = append(dirs, dir)
			}
			byDir[dir] = append(byDir[dir], &File{
				Name: path,
				AST:  f,
				Test: strings.HasSuffix(path, "_test.go"),
			})
			if name := strings.TrimSuffix(f.Name.Name, "_test"); pkgName[dir] == "" {
				pkgName[dir] = name
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	t := &Tree{Fset: fset}
	sort.Strings(dirs)
	for _, dir := range dirs {
		name := pkgName[dir]
		t.Pkgs = append(t.Pkgs, &Package{
			Name:    name,
			Dir:     dir,
			Managed: Managed(name),
			Files:   byDir[dir],
		})
	}
	return t, nil
}

// LoadSource parses an in-memory file set (path -> source), grouping files
// by directory like Load. Tests use it to build fixtures.
func LoadSource(files map[string]string) (*Tree, error) {
	fset := token.NewFileSet()
	byDir := make(map[string][]*File)
	pkgName := make(map[string]string)
	var paths []string
	for path := range files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	var dirs []string
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, files[path], parser.ParseComments)
		if err != nil {
			return nil, err
		}
		dir := filepath.Dir(path)
		if _, seen := byDir[dir]; !seen {
			dirs = append(dirs, dir)
		}
		byDir[dir] = append(byDir[dir], &File{
			Name: path,
			AST:  f,
			Test: strings.HasSuffix(path, "_test.go"),
		})
		if pkgName[dir] == "" {
			pkgName[dir] = strings.TrimSuffix(f.Name.Name, "_test")
		}
	}
	t := &Tree{Fset: fset}
	for _, dir := range dirs {
		name := pkgName[dir]
		t.Pkgs = append(t.Pkgs, &Package{
			Name:    name,
			Dir:     dir,
			Managed: Managed(name),
			Files:   byDir[dir],
		})
	}
	return t, nil
}

// Run executes the analyzers over the tree, filters findings suppressed by
// allow-directives, appends findings for malformed directives, and returns
// the result sorted by position.
func Run(t *Tree, analyzers []Analyzer) []Finding {
	allows, bad := collectDirectives(t)
	var out []Finding
	for _, a := range analyzers {
		for _, f := range a.Check(t) {
			if allows.allowed(f.Rule, f.Pos) {
				continue
			}
			out = append(out, f)
		}
	}
	out = append(out, bad...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

const directivePrefix = "popcornvet:allow"

// allowRange is one directive's scope: rule suppressed on lines
// [from, to] of a file.
type allowRange struct {
	rule     string
	from, to int
}

type allowIndex map[string][]allowRange // filename -> ranges

func (ai allowIndex) allowed(rule string, pos token.Position) bool {
	for _, r := range ai[pos.Filename] {
		if r.rule == rule && pos.Line >= r.from && pos.Line <= r.to {
			return true
		}
	}
	return false
}

// collectDirectives indexes every //popcornvet:allow directive. A directive
// covers its own line span plus the following line; a directive inside a
// function's doc comment covers the whole function.
func collectDirectives(t *Tree) (allowIndex, []Finding) {
	ai := make(allowIndex)
	known := knownRules()
	var bad []Finding
	for _, pkg := range t.Pkgs {
		for _, file := range pkg.Files {
			// Map each function's doc-comment group to the function, so a
			// directive there can cover the full body (but never more than
			// the one decl: suppression stays scoped to what the comment
			// documents).
			docSpan := make(map[*ast.CommentGroup][2]int)
			for _, decl := range file.AST.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
					docSpan[fd.Doc] = [2]int{
						t.Fset.Position(fd.Pos()).Line,
						t.Fset.Position(fd.End()).Line,
					}
				}
			}
			for _, cg := range file.AST.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, directivePrefix) {
						continue
					}
					rest := strings.TrimSpace(strings.TrimPrefix(text, directivePrefix))
					fields := strings.Fields(rest)
					pos := t.Fset.Position(c.Pos())
					if len(fields) < 2 {
						bad = append(bad, Finding{
							Pos:  pos,
							Rule: "directive",
							Message: "malformed //popcornvet:allow: need \"<rule> <reason>\"; " +
								"an unexplained suppression is as bad as the violation",
						})
						continue
					}
					rule := fields[0]
					if !known[rule] {
						bad = append(bad, Finding{
							Pos:  pos,
							Rule: "directive",
							Message: fmt.Sprintf("//popcornvet:allow names unknown analyzer %q; "+
								"a misspelled rule suppresses nothing", rule),
						})
						continue
					}
					from := pos.Line
					to := t.Fset.Position(c.End()).Line + 1
					if span, ok := docSpan[cg]; ok {
						from, to = span[0], span[1]
					}
					ai[pos.Filename] = append(ai[pos.Filename], allowRange{rule: rule, from: from, to: to})
				}
			}
		}
	}
	return ai, bad
}

// importName returns the local name a file binds the given import path to,
// or "" when the file does not import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:]
		}
		return p
	}
	return ""
}

// selectorOn reports whether expr is a selector X.name with X an identifier
// equal to pkgIdent (a package reference by our import-name heuristic),
// returning the selected name.
func selectorOn(expr ast.Expr, pkgIdent string) (string, bool) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != pkgIdent {
		return "", false
	}
	return sel.Sel.Name, true
}

// calleeName returns the final identifier of a call's function expression:
// foo(...) -> "foo", x.y.Call(...) -> "Call".
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

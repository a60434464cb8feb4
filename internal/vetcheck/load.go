package vetcheck

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// stdlib type-checks standard-library packages from GOROOT source (no
// export data, no network). It is shared by every load in the process, so a
// test binary pays for fmt once (loads must not run concurrently); it has its
// own file set because no finding ever points into the standard library.
var stdlib = importer.ForCompiler(token.NewFileSet(), "source", nil)

// loader parses the non-test files of one module's packages and type-checks
// them. It is the types.Importer of its own packages: an in-module import
// path is parsed (if the roots did not already cover its directory) and
// checked recursively, anything else comes from the standard library.
type loader struct {
	fset   *token.FileSet
	module string                             // module path, from go.mod
	root   string                             // directory holding go.mod, spelled like the roots
	source func(dir string) ([]string, error) // paths of the directory's .go files
	read   func(path string) ([]byte, error)
	pkgs   map[string]*Package // import path -> package; nil for a directory without Go files
	order  []*Package          // in-module packages in the order their check finished
	all    []string            // every package directory of the module, for refs
}

// Load walks the given roots for non-test .go files, finds the enclosing
// module, and parses and type-checks every package into a Tree. Directories
// named testdata or vendor and hidden directories are skipped. A tree that
// does not type-check is an error: the analyzers never guess.
func Load(roots []string) (*Tree, error) {
	l := &loader{read: os.ReadFile}
	l.source = func(dir string) ([]string, error) {
		entries, err := os.ReadDir(dir)
		var paths []string
		for _, e := range entries {
			if !e.IsDir() {
				paths = append(paths, filepath.Join(dir, e.Name()))
			}
		}
		return paths, err
	}
	var dirs []string
	for _, root := range roots {
		found, err := walk(root)
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, found...)
	}
	var err error
	if l.root, l.module, err = findModule(roots[0]); err != nil {
		return nil, err
	}
	if l.all, err = walk(l.root); err != nil {
		return nil, err
	}
	return l.load(dirs)
}

// walk lists root and the directories below it, skipping directories named
// testdata or vendor and hidden ones.
func walk(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		// Never skip the walk root itself: a root given as ".." (or any
		// dot-prefixed relative path) must still be entered, or Load
		// returns an empty tree and every gate built on it passes
		// vacuously.
		if base := d.Name(); path != root && (strings.HasPrefix(base, ".") || base == "testdata" || base == "vendor") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// findModule returns the nearest ancestor of dir that holds a go.mod —
// spelled relative like dir itself, so file names print the way the roots
// were given — and the module path it declares.
func findModule(dir string) (root, module string, err error) {
	for root = dir; ; root = filepath.Join(root, "..") {
		mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
		for _, line := range strings.Split(string(mod), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
				return root, f[1], nil
			}
		}
		if abs, absErr := filepath.Abs(root); absErr != nil || abs == filepath.Dir(abs) {
			return "", "", fmt.Errorf("no go.mod at or above %s: %v", dir, err)
		}
	}
}

// loadSource loads an in-memory file set (path -> source) as module "repro"
// rooted at ".", exactly as Load does a directory tree. Tests use it to
// build fixtures.
func loadSource(files map[string]string) (*Tree, error) {
	l := &loader{module: "repro", root: "."}
	byDir := make(map[string][]string)
	for path := range files {
		byDir[filepath.Dir(path)] = append(byDir[filepath.Dir(path)], path)
	}
	l.source = func(dir string) ([]string, error) { return byDir[filepath.Clean(dir)], nil }
	l.read = func(path string) ([]byte, error) { return []byte(files[path]), nil }
	for dir := range byDir {
		l.all = append(l.all, dir)
	}
	return l.load(l.all)
}

// load parses and checks the packages of dirs (the Tree's Pkgs, sorted by
// directory) and whatever in-module packages they import (its deps).
func (l *loader) load(dirs []string) (*Tree, error) {
	l.fset = token.NewFileSet()
	l.pkgs = make(map[string]*Package)
	t := &Tree{Fset: l.fset}
	sort.Strings(dirs)
	for _, dir := range dirs {
		pkg, err := l.parse(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			t.Pkgs = append(t.Pkgs, pkg)
		}
	}
	rooted := make(map[*Package]bool)
	for _, pkg := range t.Pkgs {
		rooted[pkg] = true
		if _, err := l.check(pkg); err != nil {
			return nil, err
		}
	}
	for _, pkg := range l.order {
		if !rooted[pkg] {
			t.deps = append(t.deps, pkg)
		}
	}
	var err error
	t.refs, err = l.references()
	return t, err
}

// references type-checks every package of the module, its _test.go files
// included, and returns the objects each uses from another package. Test
// files are checked as the go tool builds them: those of package p together
// with p's own files, those of p_test as a package of their own. Uses that
// stay within p (its tests' included) are left out, so a name only its own
// package needs is not referenced. A directory with test files only is
// skipped.
func (l *loader) references() (map[types.Object]bool, error) {
	refs := make(map[types.Object]bool)
	use := func(from string, info *types.Info) {
		for _, obj := range info.Uses {
			if obj.Pkg() == nil || obj.Pkg().Path() == from {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			refs[obj] = true
		}
	}
	sort.Strings(l.all)
	for _, dir := range l.all {
		pkg, err := l.parse(dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue
		}
		if _, err := l.check(pkg); err != nil {
			return nil, err
		}
		use(pkg.path, pkg.info)
		inPkg, external, err := l.parseTests(pkg)
		if err != nil {
			return nil, err
		}
		imp := types.Importer(l)
		if len(inPkg) > 0 {
			files := inPkg
			for _, f := range pkg.Files {
				files = append(files, f.AST)
			}
			info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
			variant, err := (&types.Config{Importer: l}).Check(pkg.path, l.fset, files, info)
			if err != nil {
				return nil, fmt.Errorf("type-checking %s's tests: %v", pkg.path, err)
			}
			use(pkg.path, info)
			// p_test sees p with its in-package test files (export_test.go).
			imp = importerFunc(func(path string) (*types.Package, error) {
				if path == pkg.path {
					return variant, nil
				}
				return l.Import(path)
			})
		}
		if len(external) > 0 {
			info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
			if _, err := (&types.Config{Importer: imp}).Check(pkg.path+"_test", l.fset, external, info); err != nil {
				return nil, fmt.Errorf("type-checking %s_test: %v", pkg.path, err)
			}
			use(pkg.path, info)
		}
	}
	return refs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// parseTests parses pkg's _test.go files, split into those of package p and
// those of p_test.
func (l *loader) parseTests(pkg *Package) (inPkg, external []*ast.File, err error) {
	paths, err := l.source(pkg.Dir)
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(paths)
	for _, name := range paths {
		if !strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := l.read(name)
		if err != nil {
			return nil, nil, err
		}
		f, err := parser.ParseFile(l.fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		if f.Name.Name == pkg.Name {
			inPkg = append(inPkg, f)
		} else {
			external = append(external, f)
		}
	}
	return inPkg, external, nil
}

// parse returns the package of one directory, parsing its non-test .go
// files on first request; nil when it has none.
func (l *loader) parse(dir string) (*Package, error) {
	// Through absolute paths: the root may be spelled "../.." and the
	// directory ".", which Rel cannot relate without the working directory.
	absRoot, err := filepath.Abs(l.root)
	if err != nil {
		return nil, err
	}
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(absRoot, absDir)
	if err != nil {
		return nil, err
	}
	path := l.module
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	if pkg, seen := l.pkgs[path]; seen {
		return pkg, nil
	}
	paths, err := l.source(dir)
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var pkg *Package
	for _, name := range paths {
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := l.read(name)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, name, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			pkg = &Package{Name: f.Name.Name, Dir: dir, path: path, Managed: managed(f.Name.Name)}
		}
		pkg.Files = append(pkg.Files, &File{Name: name, AST: f})
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// check type-checks pkg (once), importing through the loader.
func (l *loader) check(pkg *Package) (*types.Package, error) {
	if pkg.info != nil {
		if pkg.tpkg == nil {
			return nil, fmt.Errorf("import cycle through %s", pkg.path)
		}
		return pkg.tpkg, nil
	}
	pkg.info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	files := make([]*ast.File, len(pkg.Files))
	for i, f := range pkg.Files {
		files[i] = f.AST
	}
	checked, err := (&types.Config{Importer: l}).Check(pkg.path, l.fset, files, pkg.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", pkg.path, err)
	}
	pkg.tpkg = checked
	l.order = append(l.order, pkg)
	return checked, nil
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return stdlib.Import(path)
	}
	pkg, err := l.parse(filepath.Join(l.root, strings.TrimPrefix(path, l.module)))
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("no Go files in package %s", path)
	}
	return l.check(pkg)
}

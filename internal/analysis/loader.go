package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Load discovers, parses, and type-checks every package of the module
// rooted at (or above) dir, resolving standard-library imports from
// GOROOT source. Nested modules (a subdirectory with its own go.mod,
// like bench/) and testdata trees are skipped; _test.go files are not
// loaded. The returned Program holds every module package — use
// Match/Run to restrict analysis to a pattern subset.
func Load(dir string) (*Program, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}

	type rawPkg struct {
		path string
		dir  string
		bp   *build.Package
	}
	var raw []rawPkg
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root {
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // nested module
			}
		}
		bp, err := build.ImportDir(path, 0)
		if err != nil {
			if _, noGo := err.(*build.NoGoError); noGo {
				return nil
			}
			return fmt.Errorf("%s: %w", path, err)
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		imp := modPath
		if rel != "." {
			imp = modPath + "/" + filepath.ToSlash(rel)
		}
		raw = append(raw, rawPkg{path: imp, dir: path, bp: bp})
		return nil
	})
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	parsed := make(map[string]*rawParsed, len(raw))
	for i := range raw {
		rp := &raw[i]
		var files []*ast.File
		for _, name := range rp.bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(rp.dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		var deps []string
		for _, imp := range rp.bp.Imports {
			if imp == modPath || strings.HasPrefix(imp, modPath+"/") {
				deps = append(deps, imp)
			}
		}
		parsed[rp.path] = &rawParsed{dir: rp.dir, files: files, deps: deps}
	}

	order, err := topoSort(parsed)
	if err != nil {
		return nil, err
	}

	prog := &Program{
		Fset:   fset,
		Sizes:  types.SizesFor("gc", build.Default.GOARCH),
		byPath: make(map[string]*Package),
	}
	std := importer.ForCompiler(fset, "source", nil)
	for _, path := range order {
		rp := parsed[path]
		pkg, err := typeCheck(prog, std, path, rp.dir, rp.files)
		if err != nil {
			return nil, err
		}
		prog.Packages = append(prog.Packages, pkg)
		prog.byPath[path] = pkg
	}
	return prog, nil
}

// LoadFixture loads an analysistest-style fixture tree: every
// directory under srcRoot holding .go files is a package whose import
// path is its slash-relative directory name. Imports resolve to sibling
// fixture packages first, then to the standard library.
func LoadFixture(srcRoot string) (*Program, error) {
	parsed := make(map[string]*rawParsed)
	fset := token.NewFileSet()
	err := filepath.WalkDir(srcRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		var files []*ast.File
		var deps []string
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(path, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
			for _, spec := range f.Imports {
				imp := strings.Trim(spec.Path.Value, `"`)
				if st, err := os.Stat(filepath.Join(srcRoot, filepath.FromSlash(imp))); err == nil && st.IsDir() {
					deps = append(deps, imp)
				}
			}
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(srcRoot, path)
		if err != nil {
			return err
		}
		parsed[filepath.ToSlash(rel)] = &rawParsed{dir: path, files: files, deps: deps}
		return nil
	})
	if err != nil {
		return nil, err
	}

	order, err := topoSort(parsed)
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Fset:   fset,
		Sizes:  types.SizesFor("gc", build.Default.GOARCH),
		byPath: make(map[string]*Package),
	}
	std := importer.ForCompiler(fset, "source", nil)
	for _, path := range order {
		rp := parsed[path]
		pkg, err := typeCheck(prog, std, path, rp.dir, rp.files)
		if err != nil {
			return nil, err
		}
		prog.Packages = append(prog.Packages, pkg)
		prog.byPath[path] = pkg
	}
	return prog, nil
}

type rawParsed struct {
	dir   string
	files []*ast.File
	deps  []string
}

// progImporter resolves imports against already-checked program
// packages first, then the standard library.
type progImporter struct {
	prog *Program
	std  types.Importer
}

func (pi *progImporter) Import(path string) (*types.Package, error) {
	if pkg := pi.prog.Lookup(path); pkg != nil {
		return pkg.Types, nil
	}
	return pi.std.Import(path)
}

func typeCheck(prog *Program, std types.Importer, path, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: &progImporter{prog: prog, std: std},
		Sizes:    prog.Sizes,
	}
	tpkg, err := conf.Check(path, prog.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{PkgPath: path, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// topoSort orders package paths so every package follows its in-module
// dependencies.
func topoSort(pkgs map[string]*rawParsed) ([]string, error) {
	var order []string
	state := make(map[string]int, len(pkgs)) // 0 unvisited, 1 visiting, 2 done
	var visit func(string) error
	visit = func(p string) error {
		switch state[p] {
		case 1:
			return fmt.Errorf("import cycle through %s", p)
		case 2:
			return nil
		}
		state[p] = 1
		rp := pkgs[p]
		deps := append([]string(nil), rp.deps...)
		sort.Strings(deps)
		for _, d := range deps {
			if _, ok := pkgs[d]; ok {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[p] = 2
		order = append(order, p)
		return nil
	}
	var roots []string
	for p := range pkgs {
		roots = append(roots, p)
	}
	sort.Strings(roots)
	for _, p := range roots {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// FindModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func FindModule(dir string) (root, modPath string, err error) { return findModule(dir) }

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod: no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("no go.mod found at or above %s", abs)
		}
	}
}

// Match returns a package filter for command-line patterns relative to
// the module root: "./..." (everything), "./sub/..." (a subtree), or
// "./sub" (one package). An empty pattern list matches everything.
func (prog *Program) Match(modRoot string, patterns []string) func(*Package) bool {
	if len(patterns) == 0 {
		return nil
	}
	type rule struct {
		dir     string
		subtree bool
	}
	var rules []rule
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		subtree := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			subtree = true
			pat = rest
			if pat == "." || pat == "" {
				return func(*Package) bool { return true }
			}
		}
		pat = strings.TrimPrefix(pat, "./")
		rules = append(rules, rule{dir: filepath.Join(modRoot, filepath.FromSlash(pat)), subtree: subtree})
	}
	return func(pkg *Package) bool {
		for _, r := range rules {
			if pkg.Dir == r.dir {
				return true
			}
			if r.subtree && strings.HasPrefix(pkg.Dir, r.dir+string(filepath.Separator)) {
				return true
			}
		}
		return false
	}
}

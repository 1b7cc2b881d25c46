package dear_test

import (
	"bufio"
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
	"testing"
)

// unreachableList names the declarations under internal/ that no
// program reaches, one "<dir> <name>" per line (methods as Type.Method).
const unreachableList = "testdata/unreachable.txt"

// TestLibraryExportsHaveCallers fails unless the declarations under
// internal/ that no program reaches are exactly those listed in
// testdata/unreachable.txt: a new unreachable declaration fails it, and
// so does a listed one that became reachable or was deleted. Tests are
// not programs, so code only a test calls is unreachable.
func TestLibraryExportsHaveCallers(t *testing.T) {
	got, err := unreachableDecls(".", nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(unreachableList)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	listed := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			listed[line] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, d := range got {
		if !listed[d] {
			t.Errorf("%s is reached by no program and not listed in %s: delete it (or list it)", d, unreachableList)
		}
		delete(listed, d)
	}
	var stale []string
	for d := range listed {
		stale = append(stale, d)
	}
	sort.Strings(stale)
	for _, d := range stale {
		t.Errorf("%s is listed in %s but is reachable or no longer declared", d, unreachableList)
	}
}

// TestReachabilityCatchesPlantedExport plants an exported function that
// nothing calls but whose name is used all over the tree (a match by
// name alone would keep it); the walk must report it.
func TestReachabilityCatchesPlantedExport(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module")
	}
	got, err := unreachableDecls(".", map[string]map[string]string{
		"internal/metrics": {"planted.go": "package metrics\n\n// Send is planted dead code.\nfunc Send() int { return 1 }\n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if i := sort.SearchStrings(got, "internal/metrics Send"); i == len(got) || got[i] != "internal/metrics Send" {
		t.Errorf("planted internal/metrics.Send not reported; the walk found %d unreachable declarations", len(got))
	}
}

// methodExempt are the method names the standard library calls through
// its own interfaces (error, fmt.Stringer, sort and heap): a live type's
// method of one of these names is live.
var methodExempt = map[string]bool{"Error": true, "String": true, "Len": true,
	"Less": true, "Swap": true, "Push": true, "Pop": true}

// reachPkg is one type-checked package of the module.
type reachPkg struct {
	dir   string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// unreachableDecls type-checks every non-test package of the module
// rooted at root (perfbench included) and walks references from the
// programs: main and init of every main package, and every exported
// name of the facade. It returns the top-level declarations under
// internal/ that the walk never reaches, sorted. A method is reached
// when something names it, or when its receiver type is reached and
// its name is a method of an interface declared in the module or one
// of methodExempt. overlay adds files (directory -> file name ->
// source) to the tree, for tests of the walk itself.
func unreachableDecls(root string, overlay map[string]map[string]string) ([]string, error) {
	modPath := "repro"
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", nil)
	pkgs := map[string]*reachPkg{} // import path -> package; nil while loading
	var imp importerFunc
	load := func(dir string) (*reachPkg, error) {
		ip := modPath
		if dir != "." {
			ip = modPath + "/" + filepath.ToSlash(dir)
		}
		if p, ok := pkgs[ip]; ok {
			if p == nil {
				return nil, fmt.Errorf("import cycle through %s", ip)
			}
			return p, nil
		}
		pkgs[ip] = nil
		bp, err := build.Default.ImportDir(filepath.Join(root, dir), 0)
		if err != nil {
			return nil, err
		}
		p := &reachPkg{dir: filepath.ToSlash(dir)}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(root, dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		for name, src := range overlay[p.dir] {
			f, err := parser.ParseFile(fset, filepath.Join(root, dir, name), src, 0)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		p.types, err = conf.Check(ip, fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		pkgs[ip] = p
		return p, nil
	}
	imp = func(ip string) (*types.Package, error) {
		if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
			dir := "."
			if ip != modPath {
				dir = strings.TrimPrefix(ip, modPath+"/")
			}
			p, err := load(dir)
			if err != nil {
				return nil, err
			}
			return p.types, nil
		}
		return std.Import(ip)
	}

	// Every directory of Go files is a package of the module.
	var programs []*reachPkg
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		dir, _ := filepath.Rel(root, p)
		if _, err := build.Default.ImportDir(p, 0); err != nil {
			if _, none := err.(*build.NoGoError); none {
				return nil
			}
			return err
		}
		pkg, err := load(dir)
		if err != nil {
			return err
		}
		if pkg.types.Name() == "main" || dir == "." {
			programs = append(programs, pkg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Index the top-level declarations and the interface method names.
	type decl struct {
		pkg  *reachPkg
		node ast.Node
		name string
	}
	decls := map[types.Object]*decl{}
	methods := map[*types.TypeName][]*types.Func{}
	ifaceMethods := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							ifaceMethods[name.Name] = true
						}
					}
				}
				return true
			})
			for _, dl := range f.Decls {
				switch d := dl.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					name := d.Name.Name
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						tn := receiverName(recv.Type())
						methods[tn] = append(methods[tn], fn)
						name = tn.Name() + "." + name
					}
					decls[fn] = &decl{p, d, name}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							decls[p.info.Defs[s.Name]] = &decl{p, s, s.Name.Name}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.Name != "_" {
									decls[p.info.Defs[n]] = &decl{p, s, n.Name}
								}
							}
						}
					}
				}
			}
		}
	}

	// Walk references from the roots.
	reached := map[types.Object]bool{}
	var queue []types.Object
	var reach func(obj types.Object)
	reach = func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if reached[obj] || decls[obj] == nil {
			return
		}
		reached[obj] = true
		queue = append(queue, obj)
		if tn, ok := obj.(*types.TypeName); ok {
			for _, m := range methods[tn] {
				if ifaceMethods[m.Name()] || methodExempt[m.Name()] {
					reach(m)
				}
			}
		} else if tn := receiverName(obj.Type()); tn != nil {
			reach(tn)
		}
	}
	// The roots: main of every program, every export of the facade, and
	// the init functions of every package a program imports.
	imported := map[*types.Package]bool{}
	var importAll func(tp *types.Package)
	importAll = func(tp *types.Package) {
		if !imported[tp] {
			imported[tp] = true
			for _, q := range tp.Imports() {
				importAll(q)
			}
		}
	}
	for _, p := range programs {
		importAll(p.types)
	}
	for obj, d := range decls {
		if obj.Name() == "init" && imported[d.pkg.types] ||
			obj.Name() == "main" && d.pkg.types.Name() == "main" ||
			d.pkg.dir == "." && obj.Exported() {
			reach(obj)
		}
	}
	for len(queue) > 0 {
		d := decls[queue[0]]
		queue = queue[1:]
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := d.pkg.info.Uses[id]; obj != nil {
					reach(obj)
				}
			}
			return true
		})
	}

	var out []string
	for obj, d := range decls {
		if !reached[obj] && strings.HasPrefix(d.pkg.dir, "internal/") {
			out = append(out, d.pkg.dir+" "+d.name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// receiverName returns the named type behind t (through a pointer), or
// nil when t is not a named type.
func receiverName(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

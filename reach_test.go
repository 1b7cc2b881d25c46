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
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// unreachableList names the declarations under internal/ that no
// program reaches, one "<dir> <name>" per line (methods as Type.Method),
// and the struct fields that no program writes (as Type.Field).
const unreachableList = "testdata/unreachable.txt"

// TestLibraryExportsHaveCallers fails unless the declarations under
// internal/ that no program reaches, and the exported fields of reached
// struct types that no program writes, are exactly those listed in
// testdata/unreachable.txt: a new finding fails it, and so does a
// listed one that became reachable or was deleted. Tests are not
// programs, so code only a test calls is unreachable, and a field only
// a test sets is an option every program leaves at its zero value. A
// listed entry must also give the reason it stays (see
// readUnreachableList).
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
	listed, unreasoned, err := readUnreachableList(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range unreasoned {
		t.Errorf("%s is listed in %s in a block with no # line giving the reason it stays", d, unreachableList)
	}
	for _, d := range got {
		if !listed[d] {
			t.Errorf("%s is reached (a field: written) by no program and not listed in %s: delete it (or list it)", d, unreachableList)
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

// readUnreachableList parses the list: one entry per non-blank line
// that is not a # comment. An entry's block is the run of lines since
// the last blank line; unreasoned names, in file order, the entries
// whose block has no # line before them, so every kept declaration
// carries the reason it stays.
func readUnreachableList(r io.Reader) (listed map[string]bool, unreasoned []string, err error) {
	listed = map[string]bool{}
	reason := false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		switch line := strings.TrimSpace(sc.Text()); {
		case line == "":
			reason = false
		case strings.HasPrefix(line, "#"):
			reason = true
		default:
			listed[line] = true
			if !reason {
				unreasoned = append(unreasoned, line)
			}
		}
	}
	return listed, unreasoned, sc.Err()
}

// TestUnreachableListNeedsReasons plants entries in blocks without a
// reason: one after a blank line that ends a reasoned block, one in a
// block whose # line comes after it.
func TestUnreachableListNeedsReasons(t *testing.T) {
	listed, unreasoned, err := readUnreachableList(strings.NewReader(`# header

# kept for a reason
internal/a Kept
internal/a Kept.Method

internal/b Bare
internal/c Late
# too late
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 4 {
		t.Errorf("parsed %d entries, want 4: %v", len(listed), listed)
	}
	if want := []string{"internal/b Bare", "internal/c Late"}; !reflect.DeepEqual(unreasoned, want) {
		t.Errorf("unreasoned = %v, want %v", unreasoned, want)
	}
}

// TestReachabilityCatchesPlantedExport plants an exported function that
// nothing calls but whose name is used all over the tree (a match by
// name alone would keep it), a config type whose field an init reads
// but nothing writes, and a reached type implementing a reached
// interface of which init calls one method but not the other; the walk
// must report the function, the field and the uncalled method, and
// keep the called one.
func TestReachabilityCatchesPlantedExport(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module")
	}
	got, err := unreachableDecls(".", map[string]map[string]string{
		"internal/metrics": {"planted.go": `package metrics

// Send is planted dead code.
func Send() int { return 1 }

// PlantedConfig is a planted config type; no program sets Knob, and
// Limits is written only through its own field.
type PlantedConfig struct {
	Knob   int
	Limits PlantedLimits
}

// PlantedLimits is written through PlantedConfig.Limits.
type PlantedLimits struct{ Depth int }

var plantedConfig PlantedConfig

// PlantedProber is a planted interface: init calls Used through it,
// and nothing calls Probe.
type PlantedProber interface {
	Probe() int
	Used() int
}

// PlantedImpl implements PlantedProber.
type PlantedImpl struct{}

func (PlantedImpl) Probe() int { return 2 }
func (PlantedImpl) Used() int  { return 3 }

var plantedProber PlantedProber = PlantedImpl{}

func init() {
	_ = plantedConfig.Knob
	plantedConfig.Limits.Depth++
	_ = plantedProber.Used()
}
`},
	})
	if err != nil {
		t.Fatal(err)
	}
	has := func(s string) bool {
		i := sort.SearchStrings(got, s)
		return i < len(got) && got[i] == s
	}
	for _, want := range []string{"internal/metrics Send", "internal/metrics PlantedConfig.Knob", "internal/metrics PlantedImpl.Probe"} {
		if !has(want) {
			t.Errorf("planted %s not reported; the walk found %d unreachable declarations and unwritten fields", want, len(got))
		}
	}
	for _, written := range []string{"internal/metrics PlantedConfig.Limits", "internal/metrics PlantedLimits.Depth"} {
		if has(written) {
			t.Errorf("planted %s reported, but init writes it", written)
		}
	}
	if has("internal/metrics PlantedImpl.Used") {
		t.Error("planted PlantedImpl.Used reported, but init calls it through PlantedProber")
	}
}

// methodExempt are the method names the standard library calls through
// its own interfaces (error, fmt.Stringer, net.Addr, sort and heap): a
// live type's method of one of these names is live.
var methodExempt = map[string]bool{"Error": true, "String": true, "Network": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true}

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
// internal/ that the walk never reaches, and the exported fields of
// reached struct types there that no reached code writes, sorted. A
// method is reached when something names it, when its receiver type is
// reached and its name is one of methodExempt, or when reached code
// calls a method of that name through an interface the reached type
// (or a pointer to it) implements. A field is written by a keyed element
// of a struct literal, by any unkeyed one, or by an assignment, ++/--
// or & through it, also through an index (r.Counts[v]++) or an
// enclosing non-pointer field (a.B.C = x writes B and C); a field with
// a json tag is decoded from outside the program and needs no writer.
// overlay adds files (directory -> file name -> source) to the tree,
// for tests of the walk itself.
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
		p.info = &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
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

	// Index the top-level declarations.
	type decl struct {
		pkg  *reachPkg
		node ast.Node
		name string
	}
	decls := map[types.Object]*decl{}
	methods := map[*types.TypeName][]*types.Func{}
	for _, p := range pkgs {
		for _, f := range p.files {
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

	// Walk references from the roots. A reached type's methods that
	// reached code may call through an interface are found by matching
	// it against every interface method reached code names (called):
	// a new type against those called so far, a newly called method
	// against the types reached so far, so each pair meets once.
	reached := map[types.Object]bool{}
	var queue []types.Object
	var reachedTypes []*types.TypeName
	var called []*types.Func
	var reach func(obj types.Object)
	match := func(tn *types.TypeName, im *types.Func) {
		iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		ptr := types.NewPointer(tn.Type())
		if types.Implements(ptr, iface) {
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, im.Pkg(), im.Name())
			reach(obj)
		}
	}
	reach = func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
			if recv := o.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) && !reached[obj] {
				reached[obj] = true
				called = append(called, o)
				for _, tn := range reachedTypes {
					match(tn, o)
				}
				return
			}
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
				if methodExempt[m.Name()] {
					reach(m)
				}
			}
			if !types.IsInterface(tn.Type()) && !tn.IsAlias() {
				reachedTypes = append(reachedTypes, tn)
				for _, im := range called {
					match(tn, im)
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
	written := map[*types.Var]bool{}
	for len(queue) > 0 {
		d := decls[queue[0]]
		queue = queue[1:]
		info := d.pkg.info
		ast.Inspect(d.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := info.Uses[n]; obj != nil {
					reach(obj)
				}
			case *ast.CompositeLit:
				markLiteralWrites(info, n, written)
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					markWriteThrough(info, lhs, written)
				}
			case *ast.IncDecStmt:
				markWriteThrough(info, n.X, written)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					markWriteThrough(info, n.X, written)
				}
			}
			return true
		})
	}

	var out []string
	for obj, d := range decls {
		if !strings.HasPrefix(d.pkg.dir, "internal/") {
			continue
		}
		if !reached[obj] {
			out = append(out, d.pkg.dir+" "+d.name)
			continue
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if _, decoded := reflect.StructTag(st.Tag(i)).Lookup("json"); f.Exported() && !decoded && !written[f] {
				out = append(out, d.pkg.dir+" "+d.name+"."+f.Name())
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// markLiteralWrites records the fields a struct literal writes: the
// keyed ones, or every field when the literal is unkeyed.
func markLiteralWrites(info *types.Info, lit *ast.CompositeLit, written map[*types.Var]bool) {
	t := info.TypeOf(lit)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
				written[f.Origin()] = true
			}
		} else {
			written[st.Field(i).Origin()] = true
		}
	}
}

// markWriteThrough records the fields that x, the target of a write,
// goes through, also through index expressions: r.Counts[v]++ writes
// Counts, and a.B.C = x writes both C and B. A write through a pointer
// field only reads that field, so the walk stops there.
func markWriteThrough(info *types.Info, x ast.Expr, written map[*types.Var]bool) {
	for {
		switch e := x.(type) {
		case *ast.IndexExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.SelectorExpr:
			f, ok := info.Uses[e.Sel].(*types.Var)
			if !ok || !f.IsField() {
				return
			}
			written[f.Origin()] = true
			if _, ptr := info.TypeOf(e.X).Underlying().(*types.Pointer); ptr {
				return
			}
			x = e.X
		default:
			return
		}
	}
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

package dear_test

// Documentation gates, run by the CI docs job:
//
//   - TestDocsGodocCoverage is the godoc audit for the determinism
//     substrate (internal/des, internal/simnet) and the trace
//     subsystem (internal/trace): every exported identifier must
//     carry a doc comment. These packages define the determinism
//     contract and its observable artifact, so an undocumented export
//     there is a contract hole.
//   - TestDocsMarkdownLinks checks every relative link and local anchor
//     in the top-level markdown docs.
//   - TestFacadeExportsHaveCallers keeps dear.go at what its callers
//     use, and the docs at what dear.go exports.
//   - TestLibraryExportsHaveCallers (reach_test.go) keeps the code under
//     internal/ that no program reaches, and the exported struct fields
//     there that no program writes, at what testdata/unreachable.txt
//     lists.
//   - TestDocsCommandPathsExist keeps the command paths the docs tell a
//     reader to run at directories that exist.
//   - TestCIRunPatternsNameTests keeps every test name CI selects with
//     go test -run or -fuzz at a test that exists.
//   - TestDocsNameLiveIdentifiers keeps every pkg.Name the docs quote
//     from a package under internal/ at a declaration that exists.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// auditedPackages are the directories whose exported identifiers must
// all be documented.
var auditedPackages = []string{"internal/des", "internal/simnet", "internal/trace", "internal/monitor"}

func TestDocsGodocCoverage(t *testing.T) {
	for _, dir := range auditedPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for fname, file := range pkg.Files {
				for _, decl := range file.Decls {
					checkDeclDocs(t, fset, fname, decl)
				}
			}
		}
	}
}

func checkDeclDocs(t *testing.T, fset *token.FileSet, fname string, decl ast.Decl) {
	t.Helper()
	undocumented := func(name string, pos token.Pos) {
		t.Errorf("%s: exported %s has no doc comment", fset.Position(pos), name)
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return
		}
		if d.Recv != nil && !receiverExported(d.Recv) {
			return
		}
		if d.Doc == nil {
			undocumented(d.Name.Name, d.Pos())
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				if d.Doc == nil && s.Doc == nil && s.Comment == nil {
					undocumented(s.Name.Name, s.Pos())
				}
				// Exported fields of exported structs need docs too.
				if st, ok := s.Type.(*ast.StructType); ok {
					for _, f := range st.Fields.List {
						for _, n := range f.Names {
							if n.IsExported() && f.Doc == nil && f.Comment == nil {
								undocumented(s.Name.Name+"."+n.Name, n.Pos())
							}
						}
					}
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						undocumented(n.Name, n.Pos())
					}
				}
			}
		}
	}
}

// receiverExported reports whether a method's receiver type is exported
// (methods on unexported types are not part of the public surface).
func receiverExported(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return true
	}
	typ := recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr: // generic receiver
			typ = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

// checkedDocs are the markdown files whose links must resolve.
var checkedDocs = []string{"README.md", "DESIGN.md", "ARCHITECTURE.md", "ROADMAP.md", "CHANGES.md"}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)
var mdHeading = regexp.MustCompile(`(?m)^#{1,6}\s+(.+)$`)

func TestDocsMarkdownLinks(t *testing.T) {
	anchors := map[string]map[string]bool{}
	for _, doc := range checkedDocs {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s missing: %v", doc, err)
		}
		set := map[string]bool{}
		for _, m := range mdHeading.FindAllStringSubmatch(string(body), -1) {
			set[headingAnchor(m[1])] = true
		}
		anchors[doc] = set
	}
	for _, doc := range checkedDocs {
		body, _ := os.ReadFile(doc)
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			file, frag, _ := strings.Cut(target, "#")
			if file == "" {
				file = doc
			}
			file = filepath.Clean(file)
			if _, err := os.Stat(file); err != nil {
				t.Errorf("%s: broken link %q: %v", doc, target, err)
				continue
			}
			if frag != "" {
				set, tracked := anchors[file]
				if !tracked {
					continue // anchors only verified within the checked set
				}
				if !set[frag] {
					t.Errorf("%s: link %q: no heading anchors to #%s in %s", doc, target, frag, file)
				}
			}
		}
	}
}

// headingAnchor approximates GitHub's heading→anchor slug rule: lower
// case, spaces to dashes, punctuation stripped.
func headingAnchor(h string) string {
	h = strings.ToLower(strings.TrimSpace(h))
	var b strings.Builder
	for _, r := range h {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-':
			b.WriteRune('-')
		}
	}
	return b.String()
}

// commandDocs are the files whose command paths must exist.
var commandDocs = []string{"README.md", "DESIGN.md", "ARCHITECTURE.md", "doc.go", ".claude/skills/verify/SKILL.md"}

var (
	goRunPath = regexp.MustCompile(`go run (\./[^\s"'\x60)]+)`)
	cmdPath   = regexp.MustCompile(`(?:^|[\s\x60(])(?:\./)?(cmd/[\w-]+)`)
	braceList = regexp.MustCompile(`\{([^}]*)\}`)
)

// TestDocsCommandPathsExist fails for any `go run ./<path>` or cmd/<name>
// in the docs that does not name a directory holding Go files, so a
// deleted or renamed command cannot stay in the instructions. A shell
// brace list in a path ({a,b}) is expanded.
func TestDocsCommandPathsExist(t *testing.T) {
	for _, doc := range commandDocs {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		var paths []string
		for _, m := range goRunPath.FindAllStringSubmatch(string(body), -1) {
			paths = append(paths, m[1])
		}
		for _, m := range cmdPath.FindAllStringSubmatch(string(body), -1) {
			paths = append(paths, m[1])
		}
		checked := map[string]bool{}
		for _, p := range paths {
			expanded := []string{p}
			if b := braceList.FindStringSubmatchIndex(p); b != nil {
				expanded = nil
				for _, alt := range strings.Split(p[b[2]:b[3]], ",") {
					expanded = append(expanded, p[:b[0]]+alt+p[b[1]:])
				}
			}
			for _, dir := range expanded {
				dir = filepath.Clean(dir)
				if checked[dir] {
					continue
				}
				checked[dir] = true
				if gos, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(gos) == 0 {
					t.Errorf("%s names %s, which is not a directory holding Go files", doc, dir)
				}
			}
		}
	}
}

// ciTestFlag matches a -run or -fuzz argument of a go test command:
// quoted, or up to the next space.
var ciTestFlag = regexp.MustCompile(`\s-(?:run|fuzz)(?:=|\s+)('[^']*'|"[^"]*"|[^\s'"]+)`)

// TestCIRunPatternsNameTests fails for any alternative of a -run or
// -fuzz pattern in the CI workflow's go test commands that matches no
// Test or Fuzz function in the module: go test passes without running
// anything when a selected test was deleted or renamed, so a gate would
// go quiet. An alternative that matches the empty name (-run=^$, "run
// nothing") selects no test on purpose and is skipped. Only the
// top-level part of a pattern is checked; subtest parts after a slash
// are not.
func TestCIRunPatternsNameTests(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil &&
				(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, line := range strings.Split(string(ci), "\n") {
		if !strings.Contains(line, "go test") {
			continue
		}
		for _, m := range ciTestFlag.FindAllStringSubmatch(line, -1) {
			pattern := strings.Trim(m[1], `'"`)
			top, _, _ := strings.Cut(pattern, "/")
			for _, alt := range splitAlternatives(top) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml: %q in %q does not compile: %v", alt, pattern, err)
					continue
				}
				if re.MatchString("") {
					continue
				}
				checked++
				if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("ci.yml selects %q (in %q), which matches no Test or Fuzz function", alt, pattern)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run or -fuzz pattern in ci.yml")
	}
}

// splitAlternatives splits a regexp at its top-level | operators, the
// ones outside parentheses and brackets.
func splitAlternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, pattern[start:])
}

// Ensure the experiment index and the architecture document stay in
// sync on the experiment count: every E-number mentioned in README must
// have a row in DESIGN.md's index table.
func TestDocsExperimentIndexCoverage(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`\bE(\d+)\b`)
	indexed := map[string]bool{}
	for _, line := range strings.Split(string(design), "\n") {
		if strings.HasPrefix(line, "| E") {
			for _, m := range re.FindAllStringSubmatch(line, 1) {
				indexed[m[1]] = true
			}
		}
	}
	for _, m := range re.FindAllStringSubmatch(string(readme), -1) {
		if !indexed[m[1]] {
			t.Errorf("README mentions E%s but DESIGN.md's experiment index has no such row", m[1])
		}
	}
	if len(indexed) < 11 {
		t.Errorf("experiment index has only %d rows; expected at least E1–E11", len(indexed))
	}
}

// TestFacadeExportsHaveCallers fails for any name dear.go exports that
// nothing uses: a used name is one an example program or a root test
// names as dear.X, the subject of an Example function, or a name in the
// signature of another used declaration. It also fails for any dear.X
// in doc.go or README.md that dear.go does not export.
func TestFacadeExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "dear.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// signature maps each export to the part of its declaration that
	// names other exports: a function's type; nil for the rest, whose
	// right-hand sides name only internal packages.
	signature := map[string]ast.Node{}
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			signature[d.Name.Name] = d.Type
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					signature[s.Name.Name] = nil
				case *ast.ValueSpec:
					for _, n := range s.Names {
						signature[n.Name] = nil
					}
				}
			}
		}
	}

	callers, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir("examples", func(path string, d os.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".go") {
			callers = append(callers, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	var queue []string
	use := func(name string) {
		if _, ok := signature[name]; ok && !used[name] {
			used[name] = true
			queue = append(queue, name)
		}
	}
	for _, path := range callers {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(fn.Name.Name, "Example") {
				subject, _, _ := strings.Cut(strings.TrimPrefix(fn.Name.Name, "Example"), "_")
				use(subject)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "dear" {
					use(sel.Sel.Name)
				}
			}
			return true
		})
	}
	for len(queue) > 0 {
		sig := signature[queue[0]]
		queue = queue[1:]
		if sig == nil {
			continue
		}
		ast.Inspect(sig, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				return false // a name qualified by an internal package
			case *ast.Ident:
				use(x.Name)
			}
			return true
		})
	}
	for name := range signature {
		if ast.IsExported(name) && !used[name] {
			t.Errorf("dear.go exports %s, which no example, root test or kept signature uses", name)
		}
	}

	docRef := regexp.MustCompile(`\bdear\.([A-Z]\w*)`)
	for _, doc := range []string{"doc.go", "README.md"} {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docRef.FindAllStringSubmatch(string(body), -1) {
			if _, ok := signature[m[1]]; !ok {
				t.Errorf("%s names dear.%s, which dear.go does not export", doc, m[1])
			}
		}
	}
}

// identifierDocs are the files whose quoted identifiers must resolve.
var identifierDocs = []string{"README.md", "DESIGN.md", "ARCHITECTURE.md"}

var (
	codeSpan = regexp.MustCompile("(?s)```.*?```|`[^`\n]+`")
	// qualifiedName matches pkg.Name and pkg.Type.Name, Name exported,
	// not preceded by another selector or identifier. (A lower-case
	// pkg.name is a perfbench row such as trace.record_ns.)
	qualifiedName = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)
)

// TestDocsNameLiveIdentifiers fails for any exported pkg.Name or
// pkg.Type.Name quoted in code spans or blocks of README, DESIGN or ARCHITECTURE
// whose pkg is a package under internal/ and which names no
// declaration there: a function, type, variable or constant, or a
// type's method or field. Test files count, so a doc may name a test.
// A deleted or renamed identifier cannot stay in the prose.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]map[string]bool{} // package -> Name and Type.Name
	for _, dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				collectDeclNames(file, names)
			}
		}
		decls[filepath.Base(dir)] = names
	}
	for _, doc := range identifierDocs {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpan.FindAllString(string(body), -1) {
			for _, m := range qualifiedName.FindAllStringSubmatch(span, -1) {
				names, ok := decls[m[1]]
				if !ok {
					continue
				}
				name := m[2]
				if m[3] != "" && names[m[2]+"."+m[3]] {
					name = m[2] + "." + m[3]
				}
				if !names[name] {
					t.Errorf("%s quotes %s.%s, which internal/%s does not declare", doc, m[1], name, m[1])
				}
			}
		}
	}
}

// collectDeclNames adds the file's top-level names, and its types'
// methods and fields as Type.Name, to names.
func collectDeclNames(file *ast.File, names map[string]bool) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil || len(d.Recv.List) == 0 {
				names[d.Name.Name] = true
				continue
			}
			typ := d.Recv.List[0].Type
			for {
				switch x := typ.(type) {
				case *ast.StarExpr:
					typ = x.X
					continue
				case *ast.IndexExpr:
					typ = x.X
					continue
				case *ast.IndexListExpr:
					typ = x.X
					continue
				case *ast.Ident:
					names[x.Name+"."+d.Name.Name] = true
				}
				break
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names[s.Name.Name] = true
					var fields *ast.FieldList
					switch x := s.Type.(type) {
					case *ast.StructType:
						fields = x.Fields
					case *ast.InterfaceType:
						fields = x.Methods
					}
					if fields == nil {
						continue
					}
					for _, f := range fields.List {
						for _, n := range f.Names {
							names[s.Name.Name+"."+n.Name] = true
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names[n.Name] = true
					}
				}
			}
		}
	}
}

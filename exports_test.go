package proxygraph

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// testSupportMarker opens a doc-comment line on an exported internal
// declaration that production never uses but tests in another package do.
const testSupportMarker = "Test support:"

// stdInterfaceMethods are the standard-library interface methods the
// module implements; encoding/json, fmt and error values call them through
// interfaces the module never names.
var stdInterfaceMethods = map[string]bool{
	"MarshalJSON": true, "UnmarshalJSON": true, "String": true, "Error": true,
}

// srcFile is one parsed Go file of the tree.
type srcFile struct {
	path string // slash-separated, relative to the tree root
	ast  *ast.File
}

func (f *srcFile) dir() string { return filepath.ToSlash(filepath.Dir(f.path)) }

func (f *srcFile) isTest() bool { return strings.HasSuffix(f.path, "_test.go") }

// goPackage is the Go files of one directory: the production files, the
// test files of the same package and those of the external _test package.
type goPackage struct {
	prod, inTest, xTest []*ast.File
}

// tree is every package under a root directory, nested modules included.
type tree struct {
	fset  *token.FileSet
	root  string     // import path of the root directory
	files []*srcFile // in walk order
	of    map[*token.File]*srcFile
	pkgs  map[string]*goPackage // by import path
}

// loadTree parses every .go file under root that the build would compile
// on this platform without tags, so a race_on_test.go is left out. root
// holds a go.mod, and so may any directory below it. Like the go command's
// ./... pattern, it skips testdata and directories whose names begin with
// "." or "_" (.git among them).
func loadTree(t *testing.T, root string) *tree {
	t.Helper()
	tr := &tree{fset: token.NewFileSet(), of: map[*token.File]*srcFile{}, pkgs: map[string]*goPackage{}}
	importPath := map[string]string{} // directory → its import path
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if mod, err := os.ReadFile(filepath.Join(path, "go.mod")); err == nil {
				importPath[rel] = modulePath(mod)
			} else if path == root {
				return err
			} else {
				importPath[rel] = importPath[filepath.ToSlash(filepath.Dir(rel))] + "/" + name
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(tr.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		sf := &srcFile{path: rel, ast: f}
		tr.files = append(tr.files, sf)
		tr.of[tr.fset.File(f.Pos())] = sf
		ip := importPath[sf.dir()]
		p := tr.pkgs[ip]
		if p == nil {
			p = &goPackage{}
			tr.pkgs[ip] = p
		}
		switch {
		case !sf.isTest():
			p.prod = append(p.prod, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.xTest = append(p.xTest, f)
		default:
			p.inTest = append(p.inTest, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.root = importPath["."]
	return tr
}

func modulePath(mod []byte) string {
	for _, line := range strings.Split(string(mod), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(m)
		}
	}
	return ""
}

// stdExports caches, across trees, the export data file of each
// standard-library package a tree imports.
var stdExports = struct {
	sync.Mutex
	file map[string]string
}{file: map[string]string{}}

// stdImporter returns an importer that reads the compiler's export data for
// the packages outside the tree; one go list call finds the files of those
// not looked up before.
func stdImporter(t *testing.T, tr *tree) types.Importer {
	t.Helper()
	stdExports.Lock()
	defer stdExports.Unlock()
	var missing []string
	for _, f := range tr.files {
		for _, spec := range f.ast.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			if _, ok := stdExports.file[path]; !ok && tr.pkgs[path] == nil && path != "unsafe" && !slices.Contains(missing, path) {
				missing = append(missing, path)
			}
		}
	}
	if len(missing) > 0 {
		cmd := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, missing...)...)
		cmd.Stderr = new(strings.Builder)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list -export: %v\n%s", err, cmd.Stderr)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			path, file, _ := strings.Cut(line, "\t")
			stdExports.file[path] = file
		}
	}
	files := maps.Clone(stdExports.file)
	return importer.ForCompiler(tr.fset, "gc", func(path string) (io.ReadCloser, error) {
		if files[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(files[path])
	})
}

// universe type-checks packages of the tree against each other: Import
// returns a package of the tree type-checked from its production files,
// once, and any other package through std.
type universe struct {
	tr   *tree
	std  types.Importer
	done map[string]*types.Package
	info *types.Info
	errs *[]error
}

func (u *universe) Import(path string) (*types.Package, error) {
	if p, ok := u.done[path]; ok {
		return p, nil
	}
	gp := u.tr.pkgs[path]
	if gp == nil || len(gp.prod) == 0 {
		return u.std.Import(path)
	}
	p := u.check(path, gp.prod)
	u.done[path] = p
	return p, nil
}

func (u *universe) check(path string, files []*ast.File) *types.Package {
	conf := types.Config{Importer: u, Error: func(err error) { *u.errs = append(*u.errs, err) }}
	p, _ := conf.Check(path, u.tr.fset, files, u.info)
	return p
}

// with returns a universe that records into a fresh Info and imports pkg
// for path. It shares u's checked packages but those that import path,
// directly or not: as the go command does for a test, it checks those
// again against pkg.
func (u *universe) with(path string, pkg *types.Package) *universe {
	memo := map[*types.Package]bool{}
	var imports func(p *types.Package) bool // p imports path, directly or not
	imports = func(p *types.Package) bool {
		if v, ok := memo[p]; ok {
			return v
		}
		v := slices.ContainsFunc(p.Imports(), func(q *types.Package) bool {
			return q.Path() == path || u.done[q.Path()] == q && imports(q)
		})
		memo[p] = v
		return v
	}
	done := maps.Clone(u.done)
	maps.DeleteFunc(done, func(_ string, p *types.Package) bool { return imports(p) })
	if pkg != nil {
		done[path] = pkg
	}
	return &universe{tr: u.tr, std: u.std, done: done, info: newInfo(), errs: u.errs}
}

func newInfo() *types.Info {
	return &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
}

// decl is one top-level declaration of a production file under internal/.
type decl struct {
	file   *srcFile
	node   ast.Node // its own syntax: a use inside it is no use
	name   *ast.Ident
	label  string
	marked bool
}

// internalDecls lists the top-level functions, methods, constants,
// variables and types of the production files under internal/, exported or
// not, in source order, and collects into recv every identifier of a
// method's receiver, where naming a type is no use of it.
func internalDecls(tr *tree, recv map[*ast.Ident]bool) []*decl {
	var out []*decl
	for _, f := range tr.files {
		candidate := !f.isTest() && strings.HasPrefix(f.path, "internal/")
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recv[id] = true
						}
						return true
					})
				}
				if candidate && !(d.Recv == nil && d.Name.Name == "init") {
					out = append(out, &decl{f, d, d.Name, funcLabel(d), hasTestSupportMarker(d.Doc)})
				}
			case *ast.GenDecl:
				if !candidate {
					continue
				}
				for _, s := range d.Specs {
					doc := d.Doc
					var names []*ast.Ident
					switch s := s.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
						if d.Lparen.IsValid() {
							doc = s.Doc
						}
					case *ast.ValueSpec:
						names = s.Names
						if d.Lparen.IsValid() {
							doc = s.Doc
						}
					}
					for _, name := range names {
						if name.Name != "_" {
							out = append(out, &decl{f, s, name, name.Name, hasTestSupportMarker(doc)})
						}
					}
				}
			}
		}
	}
	return out
}

// funcLabel names a function as a reader searches for it: Name for a
// function, (*Recv).Name or (Recv).Name for a method.
func funcLabel(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	star := ""
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = "*", s.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return "(" + star + id.Name + ")." + fd.Name.Name
	}
	return fd.Name.Name
}

func hasTestSupportMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, line := range strings.Split(doc.Text(), "\n") {
		if strings.HasPrefix(line, testSupportMarker) {
			return true
		}
	}
	return false
}

// interfaces adds to set every interface with methods that t is or
// contains: through pointers, containers, signatures, struct fields and the
// underlying types of named types.
func interfaces(t types.Type, seen map[types.Type]bool, set map[*types.Interface]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Alias:
		interfaces(types.Unalias(t), seen, set)
	case *types.Named:
		interfaces(t.Underlying(), seen, set)
	case *types.Interface:
		if t.NumMethods() > 0 {
			set[t] = true
		}
	case *types.Pointer:
		interfaces(t.Elem(), seen, set)
	case *types.Slice:
		interfaces(t.Elem(), seen, set)
	case *types.Array:
		interfaces(t.Elem(), seen, set)
	case *types.Chan:
		interfaces(t.Elem(), seen, set)
	case *types.Map:
		interfaces(t.Key(), seen, set)
		interfaces(t.Elem(), seen, set)
	case *types.Signature:
		interfaces(t.Params(), seen, set)
		interfaces(t.Results(), seen, set)
	case *types.Tuple:
		for i := range t.Len() {
			interfaces(t.At(i).Type(), seen, set)
		}
	case *types.Struct:
		for i := range t.NumFields() {
			interfaces(t.Field(i).Type(), seen, set)
		}
	case *types.TypeParam:
		interfaces(t.Constraint(), seen, set)
	}
}

// unusedInternalDecls type-checks the tree and returns one "file:line name"
// line per top-level declaration of a production file under internal/ that
// breaks the rule "production code holds only what production uses":
//   - no production file of the tree (cmd/, a nested module such as
//     benchmark/ and the root package count) uses it outside its own
//     declaration and its methods' receivers, and it is not excused; or
//   - it carries the Test support: marker, but no test file outside its
//     own package uses it, so it belongs in that package's test files.
//
// Uses are resolved objects, so a method is told apart from another type's
// method of the same name and a function from another package's. A method
// is excused when it has a standard interface method's name, when its type
// (or a pointer to it) implements an interface with a method of its name
// that production code uses, or when its type is one the root package
// aliases: such a type is public API, like the root package's functions.
// Struct fields follow a rule of their own, readOnlyFields'.
func unusedInternalDecls(t *testing.T, tr *tree) []string {
	t.Helper()
	var errs []error
	prod := &universe{tr: tr, std: stdImporter(t, tr), done: map[string]*types.Package{}, info: newInfo(), errs: &errs}
	paths := slices.Sorted(maps.Keys(tr.pkgs))
	for _, path := range paths {
		prod.Import(path)
	}
	infos := []*types.Info{prod.info}
	for _, path := range paths {
		gp := tr.pkgs[path]
		self := prod.done[path]
		if len(gp.inTest) > 0 {
			u := prod.with(path, self)
			self = u.check(path, append(slices.Clone(gp.prod), gp.inTest...))
			infos = append(infos, u.info)
		}
		if len(gp.xTest) > 0 {
			u := prod.with(path, self)
			u.check(path+"_test", gp.xTest)
			infos = append(infos, u.info)
		}
	}
	if len(errs) > 0 {
		for _, err := range errs {
			t.Error(err)
		}
		t.Fatalf("the tree does not type-check")
	}

	recv := map[*ast.Ident]bool{}
	decls := internalDecls(tr, recv)
	byPos := map[token.Pos]*decl{}
	for _, d := range decls {
		byPos[d.name.Pos()] = d
	}
	used := map[*decl]bool{}
	testDirs := map[*decl]map[string]bool{} // directories whose test files use it
	for _, info := range infos {
		for id, obj := range info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			d := byPos[obj.Pos()]
			if d == nil {
				continue
			}
			f := tr.of[tr.fset.File(id.Pos())]
			switch {
			case f.isTest():
				if testDirs[d] == nil {
					testDirs[d] = map[string]bool{}
				}
				testDirs[d][f.dir()] = true
			case !recv[id] && (f != d.file || id.Pos() < d.node.Pos() || id.Pos() >= d.node.End()):
				used[d] = true
			}
		}
	}

	// Excused methods: those of the types the root package aliases, and
	// those that implement an interface production code uses.
	aliased := map[*decl]bool{}
	if root := prod.done[tr.root]; root != nil {
		for _, name := range root.Scope().Names() {
			obj, ok := root.Scope().Lookup(name).(*types.TypeName)
			if !ok || !obj.IsAlias() {
				continue
			}
			if n, ok := types.Unalias(obj.Type()).(*types.Named); ok {
				if d := byPos[n.Obj().Pos()]; d != nil {
					aliased[d] = true
				}
				for i := range n.NumMethods() {
					if d := byPos[n.Method(i).Pos()]; d != nil {
						used[d] = true
					}
				}
			}
		}
	}
	seen := map[types.Type]bool{}
	ifaces := map[*types.Interface]bool{}
	for _, tv := range prod.info.Types {
		interfaces(tv.Type, seen, ifaces)
	}
	for _, obj := range prod.info.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			interfaces(tn.Type(), seen, ifaces)
		}
	}
	methods := map[string][]*types.Func{} // candidate methods by name
	for _, d := range decls {
		if f, ok := prod.info.Defs[d.name].(*types.Func); ok && f.Signature().Recv() != nil {
			methods[f.Name()] = append(methods[f.Name()], f)
		}
	}
	for iface := range ifaces {
		for i := range iface.NumMethods() {
			for _, m := range methods[iface.Method(i).Name()] {
				recvType := m.Signature().Recv().Type()
				if p, ok := recvType.(*types.Pointer); ok {
					recvType = p.Elem()
				}
				if types.Implements(recvType, iface) || types.Implements(types.NewPointer(recvType), iface) {
					used[byPos[m.Pos()]] = true
				}
			}
		}
	}

	var bad []string
	for _, d := range decls {
		at := d.file.path + ":" + strconv.Itoa(tr.fset.Position(d.name.Pos()).Line) + " " + d.label
		fd, isFunc := d.node.(*ast.FuncDecl)
		method := isFunc && fd.Recv != nil
		switch {
		case !used[d] && !d.marked && !(method && stdInterfaceMethods[d.name.Name]):
			bad = append(bad, at)
		case d.marked && !usedOutside(testDirs[d], d.file.dir()):
			bad = append(bad, at+" ("+testSupportMarker+" but no test outside its package uses it)")
		}
	}
	return append(bad, readOnlyFields(tr, prod.info, decls, aliased)...)
}

// readOnlyFields returns one "file:line Type.Field" line per exported field
// of a struct type declared in a production file under internal/ that
// production code reads but never sets: a setting whose every production
// value is zero. A production file sets a field where the field is
//   - on the selector chain of an assignment's or ++/--'s target, down
//     through selectors, index expressions, * and parentheses;
//   - a key of a keyed composite literal, or any field of a positional one;
//   - on the selector chain of &'s operand; or
//   - on the selector chain of a range key or value.
//
// Every other use in info, the production files' Info, is a read. A promoted
// field resolves to the field it promotes. The fields of a type the root
// package aliases (public API) or one marked Test support: are excused.
func readOnlyFields(tr *tree, info *types.Info, decls []*decl, aliased map[*decl]bool) []string {
	set := map[*ast.Ident]bool{}      // identifiers in a setting position
	setFields := map[token.Pos]bool{} // fields set, by declaration position
	target := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				set[x.Sel] = true
				e = x.X
			default:
				return
			}
		}
	}
	for _, f := range tr.files {
		if f.isTest() {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					target(lhs)
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					target(n.X)
				}
			case *ast.RangeStmt:
				target(n.Key)
				target(n.Value)
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							set[id] = true
						}
					} else if st := structOf(info.Types[n].Type); st != nil {
						for i := range st.NumFields() {
							setFields[st.Field(i).Origin().Pos()] = true
						}
						break
					}
				}
			}
			return true
		})
	}
	read := map[token.Pos]bool{}
	for id, obj := range info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			if set[id] {
				setFields[v.Origin().Pos()] = true
			} else {
				read[v.Origin().Pos()] = true
			}
		}
	}

	var bad []string
	for _, d := range decls {
		tn, ok := info.Defs[d.name].(*types.TypeName)
		if !ok || d.marked || aliased[d] {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := range st.NumFields() {
			if v := st.Field(i); v.Exported() && read[v.Pos()] && !setFields[v.Pos()] {
				bad = append(bad, d.file.path+":"+strconv.Itoa(tr.fset.Position(v.Pos()).Line)+" "+d.label+"."+v.Name())
			}
		}
	}
	return bad
}

// structOf returns the struct type a composite literal of type t builds, or
// nil if it builds none.
func structOf(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

func usedOutside(dirs map[string]bool, own string) bool {
	for d := range dirs {
		if d != own {
			return true
		}
	}
	return false
}

// TestInternalExportsHaveProductionCallers keeps test-only code out of
// production files: a top-level declaration under internal/ that only tests
// use belongs in the _test.go file of the package whose tests use it, or,
// when tests in other packages need it, carries a "Test support:" line in
// its doc comment naming them. An exported struct field that production
// reads but never sets is a setting no production caller varies: delete it.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	bad := unusedInternalDecls(t, loadTree(t, "."))
	for _, line := range bad {
		t.Error(line)
	}
	if len(bad) > 0 {
		t.Errorf("%d findings: delete each declaration production does not use, move it into the _test.go file that uses it, or mark it %q in its doc comment and name the tests in other packages that use it; delete each field production reads but never sets", len(bad), testSupportMarker)
	}
}

// writeTree writes files (slash-separated path → contents) and the go.mod
// of module m under a fresh temporary directory and returns it.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module m\n"
	for path, src := range files {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestUnusedInternalExportsOnSyntheticTrees holds the guard to its rule on
// small module trees: each case lists the lines it must print, so a guard
// that passes everything fails the flagging cases and one that flags too
// much fails the passing ones.
func TestUnusedInternalExportsOnSyntheticTrees(t *testing.T) {
	const useA = "package main\n\nimport \"m/internal/a\"\n\n"
	cases := []struct {
		name  string
		files map[string]string
		want  []string
	}{
		{
			name: "uncalled function is flagged",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nfunc Used() {}\n\nfunc Unused() {}\n",
				"main.go":         useA + "func main() { a.Used() }\n",
			},
			want: []string{"internal/a/a.go:5 Unused"},
		},
		{
			name: "caller in another internal package counts",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nfunc F() {}\n",
				"internal/b/b.go": "package b\n\nimport \"m/internal/a\"\n\nfunc init() { a.F() }\n",
			},
		},
		{
			name: "caller in a nested module counts",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nfunc F() {}\n",
				"bench/go.mod":    "module m/bench\n",
				"bench/main.go":   useA + "func main() { a.F() }\n",
			},
		},
		{
			name: "struct field of the same name does not hide an uncalled function",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nfunc Weighted() {}\n",
				"internal/b/b.go": "package b\n\ntype T struct{ Weighted bool }\n\nfunc init() { _ = T{Weighted: true}.Weighted }\n",
			},
			want: []string{"internal/a/a.go:3 Weighted"},
		},
		{
			name: "another package's function of the same name does not hide an uncalled function",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nfunc Min() {}\n\nfunc Max() {}\n",
				"main.go":         "package main\n\nimport (\n\t\"math\"\n\n\t\"m/internal/a\"\n)\n\nfunc main() { _ = math.Min(1, 2); a.Max() }\n",
			},
			want: []string{"internal/a/a.go:3 Min"},
		},
		{
			name: "unused method sharing a used method's name is flagged",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype T struct{}\n\nfunc (T) Run() {}\n\ntype U struct{}\n\nfunc (U) Run() {}\n",
				"main.go":         useA + "func main() { a.T{}.Run(); _ = a.U{} }\n",
			},
			want: []string{"internal/a/a.go:9 (U).Run"},
		},
		{
			name: "unused constant, variable and type are flagged",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nconst C = 1\n\nvar V = 2\n\ntype X int\n",
			},
			want: []string{"internal/a/a.go:3 C", "internal/a/a.go:5 V", "internal/a/a.go:7 X"},
		},
		{
			name: "a type named only by its methods' receivers is flagged",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype T struct{}\n\nfunc (t *T) Run() { t.Run() }\n",
			},
			want: []string{"internal/a/a.go:3 T", "internal/a/a.go:5 (*T).Run"},
		},
		{
			name: "call through a renamed import counts",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nfunc F() {}\n",
				"main.go":         "package main\n\nimport x \"m/internal/a\"\n\nfunc main() { x.F() }\n",
			},
		},
		{
			name: "caller in own package counts",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nfunc F() {}\n\nfunc init() { F() }\n",
			},
		},
		{
			name: "test-only caller is flagged",
			files: map[string]string{
				"internal/a/a.go":      "package a\n\nfunc F() {}\n",
				"internal/a/a_test.go": "package a\n\nimport \"testing\"\n\nfunc TestF(t *testing.T) { F() }\n",
				"internal/b/b_test.go": "package b\n\nimport (\n\t\"testing\"\n\n\t\"m/internal/a\"\n)\n\nfunc TestF(t *testing.T) { a.F() }\n",
			},
			want: []string{"internal/a/a.go:3 F"},
		},
		{
			name: "unexported function only a test calls is flagged",
			files: map[string]string{
				"internal/a/a.go":      "package a\n\nfunc helper() {}\n",
				"internal/a/a_test.go": "package a\n\nimport \"testing\"\n\nfunc TestHelper(t *testing.T) { helper() }\n",
			},
			want: []string{"internal/a/a.go:3 helper"},
		},
		{
			name: "name in a comment is not a use",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nfunc F() {}\n",
				"main.go":         "package main\n\n// F is documented here but never called.\nfunc main() {}\n",
			},
			want: []string{"internal/a/a.go:3 F"},
		},
		{
			name: "recursion is not a caller",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nfunc F(n int) int {\n\tif n == 0 {\n\t\treturn 0\n\t}\n\treturn F(n - 1)\n}\n",
			},
			want: []string{"internal/a/a.go:3 F"},
		},
		{
			name: "method labels name the receiver",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype T struct{}\n\nfunc (*T) P() {}\n\nfunc (T) V() {}\n\ntype G[K any] struct{}\n\nfunc (G[K]) W() {}\n",
				"main.go":         useA + "func main() { _ = a.T{}; _ = a.G[int]{} }\n",
			},
			want: []string{"internal/a/a.go:5 (*T).P", "internal/a/a.go:7 (T).V", "internal/a/a.go:11 (G).W"},
		},
		{
			name: "method used only through an interface passes",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nimport \"sort\"\n\ntype Runner interface{ Run() }\n\ntype T struct{}\n\nfunc (T) Run() {}\n\nfunc Do(r Runner) { r.Run() }\n\ntype byLen []string\n\nfunc (b byLen) Len() int { return len(b) }\n\nfunc (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }\n\nfunc (b byLen) Swap(i, j int) { b[i], b[j] = b[j], b[i] }\n\nfunc Sort(s []string) { sort.Sort(byLen(s)) }\n",
				"main.go":         useA + "func main() { a.Do(a.T{}); a.Sort(nil) }\n",
			},
		},
		{
			name: "methods of a type the root package aliases pass",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype T struct{}\n\nfunc (T) M() {}\n\nfunc (*T) P() {}\n",
				"facade.go":       "package m\n\nimport \"m/internal/a\"\n\n// T is a's T.\ntype T = a.T\n",
			},
		},
		{
			name: "promoted method of an embedded field passes",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype Inner struct{}\n\nfunc (*Inner) Step() {}\n\ntype outer struct{ *Inner }\n\nfunc Run() { outer{&Inner{}}.Step() }\n",
				"main.go":         useA + "func main() { a.Run() }\n",
			},
		},
		{
			name: "positional composite-literal fields pass",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype key struct{ app, cluster string }\n\nvar memo = map[key]int{}\n\nfunc Get(app, cl string) int { return memo[key{app, cl}] }\n",
				"main.go":         useA + "func main() { a.Get(\"\", \"\") }\n",
			},
		},
		{
			name: "fields html/template reads pass",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nimport (\n\t\"html/template\"\n\t\"io\"\n)\n\ntype Report struct{ Title string }\n\nvar page = template.Must(template.New(\"p\").Parse(\"{{.Title}}\"))\n\nfunc Write(w io.Writer) error { return page.Execute(w, Report{}) }\n",
				"main.go":         "package main\n\nimport (\n\t\"os\"\n\n\t\"m/internal/a\"\n)\n\nfunc main() { _ = a.Write(os.Stdout) }\n",
			},
		},
		{
			name: "marked function used by another package's tests passes",
			files: map[string]string{
				"internal/a/a.go":      "package a\n\n// F builds a fixture.\n//\n// Test support: the b tests.\nfunc F() {}\n",
				"internal/b/b_test.go": "package b\n\nimport (\n\t\"testing\"\n\n\t\"m/internal/a\"\n)\n\nfunc TestF(t *testing.T) { a.F() }\n",
			},
		},
		{
			name: "marked method used by another package's tests passes",
			files: map[string]string{
				"internal/a/a.go":      "package a\n\ntype T struct{}\n\n// M builds a fixture.\n//\n// Test support: the b tests.\nfunc (T) M() {}\n",
				"main.go":              useA + "func main() { _ = a.T{} }\n",
				"internal/b/b_test.go": "package b\n\nimport (\n\t\"testing\"\n\n\t\"m/internal/a\"\n)\n\nfunc TestM(t *testing.T) { a.T{}.M() }\n",
			},
		},
		{
			name: "stale marker is flagged",
			files: map[string]string{
				"internal/a/a.go":      "package a\n\n// F builds a fixture.\n//\n// Test support: the a tests.\nfunc F() {}\n",
				"internal/a/a_test.go": "package a\n\nimport \"testing\"\n\nfunc TestF(t *testing.T) { F() }\n",
			},
			want: []string{"internal/a/a.go:6 F (Test support: but no test outside its package uses it)"},
		},
		{
			name: "marker only counts at the start of a line",
			files: map[string]string{
				"internal/a/a.go":      "package a\n\n// F is not Test support: anything.\nfunc F() {}\n",
				"internal/b/b_test.go": "package b\n\nimport (\n\t\"testing\"\n\n\t\"m/internal/a\"\n)\n\nfunc TestF(t *testing.T) { a.F() }\n",
			},
			want: []string{"internal/a/a.go:4 F"},
		},
		{
			name: "standard interface methods pass",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype T struct{}\n\nfunc (T) String() string { return \"\" }\n\nfunc (T) Error() string { return \"\" }\n\nfunc (T) MarshalJSON() ([]byte, error) { return nil, nil }\n\nfunc (*T) UnmarshalJSON([]byte) error { return nil }\n",
				"main.go":         useA + "func main() { _ = a.T{} }\n",
			},
		},
		{
			name: "standard interface name on a plain function is flagged",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nfunc String() string { return \"\" }\n",
			},
			want: []string{"internal/a/a.go:3 String"},
		},
		{
			name: "only internal/ is scanned",
			files: map[string]string{
				"pkg/p/p.go":    "package p\n\nfunc Unused() {}\n",
				"cmd/c/main.go": "package main\n\nfunc Unused() {}\n\nfunc main() {}\n",
			},
		},
		{
			name: "field read but never set is flagged",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype T struct {\n\tF int\n\tG int\n}\n\nfunc Get(t T) int { return t.F + t.G }\n",
				"main.go":         useA + "func main() { _ = a.Get(a.T{G: 1}) }\n",
			},
			want: []string{"internal/a/a.go:4 T.F"},
		},
		{
			name: "field only tests set is flagged",
			files: map[string]string{
				"internal/a/a.go":      "package a\n\ntype T struct{ N int }\n\nfunc Get(t T) int { return t.N }\n",
				"internal/a/a_test.go": "package a\n\nimport \"testing\"\n\nfunc TestGet(t *testing.T) { Get(T{N: 1}) }\n",
				"main.go":              useA + "func main() { _ = a.Get(a.T{}) }\n",
			},
			want: []string{"internal/a/a.go:3 T.N"},
		},
		{
			name: "assignment through selectors, index, * and parentheses sets fields",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype Inner struct{ Fs []int }\n\ntype Outer struct {\n\tIn Inner\n\tP  *int\n}\n\nfunc Set(os []*Outer) int {\n\t(*os[0]).In.Fs[0] = 1\n\t*(os[0].P) = 2\n\treturn os[0].In.Fs[0] + *os[0].P\n}\n",
				"main.go":         useA + "func main() { a.Set(nil) }\n",
			},
		},
		{
			name: "increment sets a field",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype T struct{ N int }\n\nfunc Next(t *T) int {\n\tt.N++\n\treturn t.N\n}\n",
				"main.go":         useA + "func main() { a.Next(nil) }\n",
			},
		},
		{
			name: "keyed composite literal sets a field",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype T struct{ N int }\n\nfunc Get() int { return T{N: 1}.N }\n",
				"main.go":         useA + "func main() { a.Get() }\n",
			},
		},
		{
			name: "positional composite literal sets every field",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype T struct{ A, B int }\n\nfunc Get() int {\n\tts := []*T{{1, 2}}\n\treturn ts[0].A + ts[0].B\n}\n",
				"main.go":         useA + "func main() { a.Get() }\n",
			},
		},
		{
			name: "address-of sets a field",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype T struct{ N int }\n\nfunc fill(p *int) { *p = 1 }\n\nfunc Get(t T) int {\n\tfill(&t.N)\n\treturn t.N\n}\n",
				"main.go":         useA + "func main() { a.Get(a.T{}) }\n",
			},
		},
		{
			name: "range key and value set fields",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype T struct{ K, V string }\n\nfunc Last(m map[string]string) string {\n\tvar t T\n\tfor t.K, t.V = range m {\n\t}\n\treturn t.K + t.V\n}\n",
				"main.go":         useA + "func main() { a.Last(nil) }\n",
			},
		},
		{
			name: "promoted fields resolve to the embedded struct's",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype Inner struct {\n\tSet, Unset int\n}\n\ntype Outer struct{ Inner }\n\nfunc Get() int {\n\tvar o Outer\n\to.Set = 1\n\treturn o.Set + o.Unset\n}\n",
				"main.go":         useA + "func main() { a.Get() }\n",
			},
			want: []string{"internal/a/a.go:4 Inner.Unset"},
		},
		{
			name: "fields of a type the root package aliases pass",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype T struct{ F int }\n\nfunc Get(t T) int { return t.F }\n",
				"facade.go":       "package m\n\nimport \"m/internal/a\"\n\n// T is a's T.\ntype T = a.T\n\n// Get is a's Get.\nfunc Get(t T) int { return a.Get(t) }\n",
			},
		},
		{
			name: "fields of a marked type pass",
			files: map[string]string{
				"internal/a/a.go":      "package a\n\n// Spec is built by tests.\n//\n// Test support: the b tests.\ntype Spec struct{ N int }\n\nfunc Run(s Spec) int { return s.N }\n",
				"main.go":              useA + "func main() { a.Run(a.Spec{}) }\n",
				"internal/b/b_test.go": "package b\n\nimport (\n\t\"testing\"\n\n\t\"m/internal/a\"\n)\n\nfunc TestRun(t *testing.T) { a.Run(a.Spec{N: 1}) }\n",
			},
		},
		{
			name: "testdata and dot directories are skipped",
			files: map[string]string{
				"internal/a/a.go":               "package a\n\nfunc F() {}\n",
				"internal/a/testdata/caller.go": "package testdata\n\nimport \"m/internal/a\"\n\nfunc init() { a.F() }\n",
				".hidden/caller.go":             "package hidden\n\nimport \"m/internal/a\"\n\nfunc init() { a.F() }\n",
				"internal/testdata/unused.go":   "package testdata\n\nfunc Unused() {}\n",
				"internal/_scratch/unused.go":   "package scratch\n\nfunc Unused() {}\n",
			},
			want: []string{"internal/a/a.go:3 F"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := unusedInternalDecls(t, loadTree(t, writeTree(t, tc.files)))
			slices.Sort(got)
			want := slices.Clone(tc.want)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Errorf("guard printed\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
			}
		})
	}
}

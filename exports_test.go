package proxygraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// testSupportMarker opens a doc-comment line on an exported internal
// function that production never calls but tests in another package do.
const testSupportMarker = "Test support:"

// stdInterfaceMethods are the standard-library interface methods the
// module implements; a method of one of these names has callers the scan
// cannot see (encoding/json, fmt and error values call them).
var stdInterfaceMethods = map[string]bool{
	"MarshalJSON": true, "UnmarshalJSON": true, "String": true, "Error": true,
}

// parsedFile is one parsed Go file of the module tree.
type parsedFile struct {
	path string // slash-separated, relative to the module root
	fset *token.FileSet
	file *ast.File
	// imports maps the name the file imports a package of the module
	// under to the package's directory, relative to the module root.
	imports map[string]string
}

func (f parsedFile) dir() string { return filepath.ToSlash(filepath.Dir(f.path)) }

func (f parsedFile) isTest() bool { return strings.HasSuffix(f.path, "_test.go") }

// parseTree parses every .go file under root, the module whose go.mod is at
// root. Like the go command's ./... pattern, it skips testdata and
// directories whose names begin with "." or "_" (.git among them).
func parseTree(t *testing.T, root string) []parsedFile {
	t.Helper()
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	module := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.TrimSpace(m)
		}
	}
	var files []parsedFile
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		imports := map[string]string{}
		for _, spec := range f.Imports {
			ipath, _ := strconv.Unquote(spec.Path.Value)
			dir, ok := strings.CutPrefix(ipath, module+"/")
			if !ok {
				continue
			}
			name := dir[strings.LastIndex(dir, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = dir
		}
		files = append(files, parsedFile{path: filepath.ToSlash(rel), fset: fset, file: f, imports: imports})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// countUses adds f's references in n to counts. Every identifier counts
// under its name, which is how methods are matched. A reference that can
// name a package-level function also counts under "dir.Name": an
// unqualified identifier under the file's own directory, and x.Name under
// the directory of the module package f imports as x. Comments are not part
// of the syntax tree, so names in them do not count.
func countUses(f parsedFile, n ast.Node, counts map[string]int) {
	from := map[*ast.Ident]ast.Expr{} // a selector's name → what it selects from
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			from[x.Sel] = x.X
		case *ast.Ident:
			counts[x.Name]++
			if sel, isSel := from[x]; !isSel {
				counts[f.dir()+"."+x.Name]++
			} else if pkg, ok := sel.(*ast.Ident); ok && f.imports[pkg.Name] != "" {
				counts[f.imports[pkg.Name]+"."+x.Name]++
			}
		}
		return true
	})
}

// useKey is the key countUses counts fd's references under.
func useKey(f parsedFile, fd *ast.FuncDecl) string {
	if fd.Recv != nil {
		return fd.Name.Name
	}
	return f.dir() + "." + fd.Name.Name
}

// funcLabel names a declaration as a reader searches for it: Name for a
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

// unusedInternalExports scans the parsed tree and returns one
// "file:line name" line per exported top-level function or method under
// internal/ that breaks the rule "production code holds only what
// production calls":
//   - no non-test file uses it outside its own declaration, and neither a
//     Test support: marker nor a standard-library interface method of that
//     name excuses it; or
//   - it carries the marker, but no test file outside its own package
//     uses it, so it belongs in that package's test files.
//
// A function is used where its package names it unqualified or another
// package names it through its import (see countUses), so neither a struct
// field of another package nor another package's function of the same name
// hides it. A method is matched by name, so a use of another identifier
// with the same name counts as a use, a method named in one of the module's
// interfaces among them: the scan can miss an unused method.
func unusedInternalExports(files []parsedFile) []string {
	prodUses := map[string]int{}
	// testUses[key] is the set of directories whose test files use key.
	testUses := map[string]map[string]bool{}
	for _, f := range files {
		if !f.isTest() {
			countUses(f, f.file, prodUses)
			continue
		}
		uses := map[string]int{}
		countUses(f, f.file, uses)
		for key := range uses {
			if testUses[key] == nil {
				testUses[key] = map[string]bool{}
			}
			testUses[key][f.dir()] = true
		}
	}

	var bad []string
	for _, f := range files {
		if f.isTest() || !strings.HasPrefix(f.path, "internal/") {
			continue
		}
		for _, decl := range f.file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			key := useKey(f, fd)
			own := map[string]int{}
			countUses(f, fd, own)
			used := prodUses[key] > own[key]
			marked := hasTestSupportMarker(fd.Doc)
			iface := fd.Recv != nil && stdInterfaceMethods[fd.Name.Name]
			at := f.path + ":" + strconv.Itoa(f.fset.Position(fd.Pos()).Line) + " " + funcLabel(fd)
			switch {
			case !used && !marked && !iface:
				bad = append(bad, at)
			case marked && !usedOutside(testUses[key], f.dir()):
				bad = append(bad, at+" ("+testSupportMarker+" but no test outside its package uses it)")
			}
		}
	}
	return bad
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
// production files: an exported internal function that only tests call
// belongs in the _test.go file of the package whose tests call it, or, when
// tests in other packages need it, carries a "Test support:" line in its
// doc comment naming them.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	bad := unusedInternalExports(parseTree(t, "."))
	for _, line := range bad {
		t.Error(line)
	}
	if len(bad) > 0 {
		t.Errorf("%d exported internal functions have no production caller: delete each, move it into the _test.go file that uses it, or mark it %q in its doc comment and name the tests in other packages that call it", len(bad), testSupportMarker)
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
	cases := []struct {
		name  string
		files map[string]string
		want  []string
	}{
		{
			name: "uncalled function is flagged",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nfunc Used() {}\n\nfunc Unused() {}\n",
				"main.go":         "package main\n\nimport \"m/internal/a\"\n\nfunc main() { a.Used() }\n",
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
				"internal/a/a.go": "package a\n\nfunc Min() {}\n",
				"main.go":         "package main\n\nimport (\n\t\"math\"\n\n\t\"m/internal/a\"\n)\n\nfunc main() { _ = math.Min(1, 2); _ = a.Max }\n",
			},
			want: []string{"internal/a/a.go:3 Min"},
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
			},
			want: []string{"internal/a/a.go:5 (*T).P", "internal/a/a.go:7 (T).V", "internal/a/a.go:11 (G).W"},
		},
		{
			name: "marked function used by another package's tests passes",
			files: map[string]string{
				"internal/a/a.go":      "package a\n\n// F builds a fixture.\n//\n// Test support: the b tests.\nfunc F() {}\n",
				"internal/b/b_test.go": "package b\n\nimport (\n\t\"testing\"\n\n\t\"m/internal/a\"\n)\n\nfunc TestF(t *testing.T) { a.F() }\n",
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
			name: "method named in a module interface passes",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype Runner interface{ Run() }\n\ntype T struct{}\n\nfunc (T) Run() {}\n",
			},
		},
		{
			name: "only exported internal functions are scanned",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nfunc unused() {}\n",
				"pkg/p/p.go":      "package p\n\nfunc Unused() {}\n",
				"cmd/c/main.go":   "package main\n\nfunc Unused() {}\n\nfunc main() {}\n",
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
			got := unusedInternalExports(parseTree(t, writeTree(t, tc.files)))
			slices.Sort(got)
			want := slices.Clone(tc.want)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Errorf("guard printed\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
			}
		})
	}
}

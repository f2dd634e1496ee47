// The map-order guard. Go randomizes map iteration order, so a `range`
// over a map that feeds a float sum, a slice, a string or an event
// booking can make two runs of one request differ. That broke the
// determinism contract twice (the area and fig1 float sums), and both
// times the difference was found by chance. This test finds such loops
// statically: it type-checks every non-test package of the module with
// go/parser and go/types (standard library only, offline) and fails on
// any range over a map unless
//
//   - the loop only appends its key to a slice that a later statement
//     of the same block sorts (sort.Strings, sort.Ints, sort.Slice,
//     sort.SliceStable, slices.Sort, slices.SortFunc, …), or
//   - the line above the loop, or the loop's own line, carries a
//     comment `// order-insensitive: <reason>` saying why the order
//     cannot reach an output.
package main

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
	"testing"
)

// orderInsensitive is the annotation that exempts a map range.
const orderInsensitive = "// order-insensitive:"

func TestNoUnorderedMapRange(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	paths, err := packagePaths(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 10 {
		t.Fatalf("found only %d packages under %s; the walk is broken", len(paths), root)
	}
	fset := token.NewFileSet()
	l := &loader{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range l.files {
		for _, pos := range unorderedMapRanges(fset, f, l.info) {
			rel, _ := filepath.Rel(root, pos.Filename)
			t.Errorf("%s:%d: range over a map; sort its keys first, or annotate the loop with %q", rel, pos.Line, orderInsensitive+" <reason>")
		}
	}
}

// module is the import path of the repository root.
const module = "accelflow"

// loader type-checks the module's packages from source, each once, in
// import order; the standard library comes from the source importer.
// It keeps every file it checked and one types.Info for all of them.
type loader struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	files []*ast.File
	info  *types.Info
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != module && !strings.HasPrefix(path, module+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, module)))
	files, err := parsePackage(l.fset, dir)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	l.pkgs[path] = p
	l.files = append(l.files, files...)
	return p, nil
}

// packagePaths lists the import paths of the module's packages that
// have non-test Go files, sorted. bench/ is a module of its own, and
// testdata and hidden directories hold no packages of this one.
func packagePaths(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			seen[strings.TrimSuffix(module+"/"+filepath.ToSlash(rel), "/.")] = true
		}
		return nil
	})
	paths := make([]string, 0, len(seen))
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths, err
}

// parsePackage parses the non-test Go files of one directory, with
// comments, in name order.
func parsePackage(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// unorderedMapRanges returns the position of every range over a map in
// f that neither collects keys for a later sort nor carries the
// order-insensitive annotation.
func unorderedMapRanges(fset *token.FileSet, f *ast.File, info *types.Info) []token.Position {
	annotated := map[int]bool{} // lines an annotation covers
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, orderInsensitive) && strings.TrimSpace(strings.TrimPrefix(c.Text, orderInsensitive)) != "" {
				line := fset.Position(c.Slash).Line
				annotated[line] = true
				annotated[line+1] = true
			}
		}
	}
	var out []token.Position
	ast.Inspect(f, func(n ast.Node) bool {
		var list []ast.Stmt
		switch b := n.(type) {
		case *ast.BlockStmt:
			list = b.List
		case *ast.CaseClause:
			list = b.Body
		case *ast.CommClause:
			list = b.Body
		default:
			return true
		}
		for i, s := range list {
			if l, ok := s.(*ast.LabeledStmt); ok {
				s = l.Stmt
			}
			rs, ok := s.(*ast.RangeStmt)
			if !ok {
				continue
			}
			if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
				continue
			}
			pos := fset.Position(rs.For)
			if annotated[pos.Line] || collectsSortedKeys(rs, list[i+1:], info) {
				continue
			}
			out = append(out, pos)
		}
		return true
	})
	return out
}

// collectsSortedKeys reports whether the loop's whole body is
// `s = append(s, key)` and a statement after it sorts s.
func collectsSortedKeys(rs *ast.RangeStmt, after []ast.Stmt, info *types.Info) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" || len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	dst, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 || !isBuiltin(call.Fun, "append", info) ||
		!sameObject(call.Args[0], dst, info) || !sameObject(call.Args[1], key, info) {
		return false
	}
	for _, s := range after {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			continue
		}
		c, ok := es.X.(*ast.CallExpr)
		if ok && len(c.Args) > 0 && isSortCall(c.Fun, info) && sameObject(c.Args[0], dst, info) {
			return true
		}
	}
	return false
}

// isBuiltin reports whether fun names the predeclared function name.
func isBuiltin(fun ast.Expr, name string, info *types.Info) bool {
	id, ok := fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// isSortCall reports whether fun is a sorting function of package sort
// or slices.
func isSortCall(fun ast.Expr, info *types.Info) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		switch fn.Name() {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable":
			return true
		}
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}

// sameObject reports whether e is an identifier denoting the same
// variable as id.
func sameObject(e ast.Expr, id *ast.Ident, info *types.Info) bool {
	x, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.ObjectOf(id)
	return obj != nil && info.ObjectOf(x) == obj
}

// TestMapRangeRule runs the rule on small functions: what it must flag
// and what it must let through.
func TestMapRangeRule(t *testing.T) {
	cases := []struct {
		name, body string
		flagged    bool
	}{
		{"float sum", "var s float64; for _, v := range m { s += v }; _ = s", true},
		{"annotated", "var s float64\n// order-insensitive: test\nfor _, v := range m { s += v }; _ = s", false},
		{"annotated on the loop line", "var s float64; for _, v := range m { s += v } // order-insensitive: test\n_ = s", false},
		{"annotation without a reason", "var s float64\n// order-insensitive:\nfor _, v := range m { s += v }; _ = s", true},
		{"keys sorted after", "var ks []string; for k := range m { ks = append(ks, k) }; sort.Strings(ks)", false},
		{"keys never sorted", "var ks []string; for k := range m { ks = append(ks, k) }; _ = ks", true},
		{"values sorted after", "var vs []float64; for _, v := range m { vs = append(vs, v) }; sort.Float64s(vs)", true},
		{"another slice sorted", "var ks, o []string; for k := range m { ks = append(ks, k) }; sort.Strings(o); _ = ks", true},
		{"range over a slice", "var s float64; for _, v := range []float64{1, 2} { s += v }; _ = s", false},
	}
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	for _, c := range cases {
		src := "package p\nimport \"sort\"\nvar _ = sort.Strings\nfunc f(m map[string]float64) {\n" + c.body + "\n}\n"
		f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := len(unorderedMapRanges(fset, f, info)) > 0; got != c.flagged {
			t.Errorf("%s: flagged = %v, want %v", c.name, got, c.flagged)
		}
	}
}

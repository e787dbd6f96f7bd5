package gridrank

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadExportPkgs are the internal packages whose exported API is
// guarded: every exported func, method and type must be named by some
// non-test file other than the one declaring it.
var deadExportPkgs = []string{"internal/algo", "internal/grid", "internal/dataset", "internal/vec", "internal/topk"}

// stdlibMethodNames are method names that satisfy standard-library
// interfaces (sort.Interface, heap.Interface, fmt.Stringer, error,
// io.Reader/Writer/WriterTo/ReaderFrom). The stdlib calls them, so no
// repo file has to.
var stdlibMethodNames = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"String": true, "Error": true,
	"Read": true, "Write": true, "WriteTo": true, "ReadFrom": true,
}

// goFileNames records how one non-test Go file names things: bare
// identifiers (same-package references), pkg.Name selectors resolved to
// the import path, and every selector or interface-method name (method
// references, which need no type information to match by name).
type goFileNames struct {
	dir       string // slash path of the file's directory, relative to the repo root
	idents    map[string]bool
	qualified map[string]bool // "importpath.Name"
	methods   map[string]bool
}

// TestNoDeadExports fails when an exported func, method or type in the
// guarded internal packages is named by no non-test file other than its
// declaring file — API kept alive only by its own tests. Delete such a
// declaration, or move it into a _test.go file when tests use it as a
// reference oracle.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	names := map[string]*goFileNames{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files[path] = f
		names[path] = collectNames(filepath.ToSlash(filepath.Dir(path)), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	type declAt struct {
		path string
		ex   exportedDecl
	}
	var decls []declAt
	for path, f := range files {
		if guardedPkg(filepath.ToSlash(filepath.Dir(path))) {
			for _, decl := range f.Decls {
				for _, ex := range exportedDecls(decl) {
					decls = append(decls, declAt{path, ex})
				}
			}
		}
	}
	live := func(d declAt) bool {
		dir := filepath.ToSlash(filepath.Dir(d.path))
		return (d.ex.method && stdlibMethodNames[d.ex.name]) || namedElsewhere(names, d.path, dir, d.ex)
	}
	var dead []string
	for _, d := range decls {
		if live(d) {
			continue
		}
		// A type reached only through a live constructor or accessor
		// that returns it (NewBBR's *BBR) is alive too.
		returned := false
		for _, f := range decls {
			if f.ex.results[d.ex.name] && filepath.Dir(f.path) == filepath.Dir(d.path) && live(f) {
				returned = true
				break
			}
		}
		if !d.ex.typ || !returned {
			dead = append(dead, fset.Position(d.ex.pos).String()+": "+d.ex.label)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is named by no non-test file but its own; delete it or move it into a _test.go file", d)
	}
}

func guardedPkg(dir string) bool {
	for _, p := range deadExportPkgs {
		if dir == p {
			return true
		}
	}
	return false
}

func collectNames(dir string, f *ast.File) *goFileNames {
	n := &goFileNames{dir: dir, idents: map[string]bool{}, qualified: map[string]bool{}, methods: map[string]bool{}}
	imports := map[string]string{} // local name -> repo-relative package dir
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		rel, ok := strings.CutPrefix(p, "gridrank/")
		if !ok {
			continue
		}
		local := rel[strings.LastIndex(rel, "/")+1:]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = rel
	}
	ast.Inspect(f, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.SelectorExpr:
			n.methods[x.Sel.Name] = true
			if id, ok := x.X.(*ast.Ident); ok {
				if rel, ok := imports[id.Name]; ok {
					n.qualified[rel+"."+x.Sel.Name] = true
				}
			}
		case *ast.InterfaceType:
			for _, m := range x.Methods.List {
				for _, name := range m.Names {
					n.methods[name.Name] = true
				}
			}
		case *ast.Ident:
			n.idents[x.Name] = true
		}
		return true
	})
	return n
}

type exportedDecl struct {
	name    string
	label   string
	method  bool
	typ     bool
	results map[string]bool // identifiers in a func's result types
	pos     token.Pos
}

func exportedDecls(decl ast.Decl) []exportedDecl {
	var out []exportedDecl
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		ex := exportedDecl{name: d.Name.Name, label: "func " + d.Name.Name, results: map[string]bool{}, pos: d.Pos()}
		if d.Recv != nil {
			ex.label, ex.method = "method "+recvName(d.Recv)+"."+d.Name.Name, true
		}
		if d.Type.Results != nil {
			ast.Inspect(d.Type.Results, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					ex.results[id.Name] = true
				}
				return true
			})
		}
		return []exportedDecl{ex}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
				out = append(out, exportedDecl{name: ts.Name.Name, label: "type " + ts.Name.Name, typ: true, pos: ts.Pos()})
			}
		}
	}
	return out
}

func recvName(fl *ast.FieldList) string {
	typ := fl.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if idx, ok := typ.(*ast.IndexExpr); ok {
		typ = idx.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

// namedElsewhere reports whether any non-test file other than the
// declaring one names ex: a method by selector or interface method name,
// a func or type by bare identifier from its own package or by pkg.Name
// from another.
func namedElsewhere(names map[string]*goFileNames, declPath, dir string, ex exportedDecl) bool {
	for path, n := range names {
		if path == declPath {
			continue
		}
		switch {
		case ex.method:
			if n.methods[ex.name] {
				return true
			}
		case n.dir == dir:
			if n.idents[ex.name] {
				return true
			}
		default:
			if n.qualified[dir+"."+ex.name] {
				return true
			}
		}
	}
	return false
}

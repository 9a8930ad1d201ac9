// Package archtest holds the repository's architecture rules as one Go
// test. It parses the module once and checks one table of rules against
// it: which package may import which, where a call may appear, which
// declarations stay deleted, which string literals have a single owner,
// that every package is reached, and that every test a document names
// exists. Each rule carries a fixture that breaks it, and the test fails
// unless the rule fires on it.
package archtest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const modulePath = "github.com/splaykit/splay"

// docFiles are the documents whose test names must resolve.
var docFiles = []string{"DESIGN.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"}

// A module is the parsed source of the repository's Go module. Paths are
// slash-separated and relative to the module root, whose package's dir is
// "."; an import of a module package is recorded the same way.
type module struct {
	fset  *token.FileSet
	files []*file
	paths map[string]bool   // every file and directory walked
	names map[string]string // package dir → package name
	docs  map[string]string // docFiles by path
}

type file struct {
	path, dir string
	test      bool
	src       string
	ast       *ast.File
	names     map[string]string // import name in this file → path
	dots      []string          // dot-imported paths
	facts     []fact            // in a test file, its imports and top-level functions only
}

type kind int

const (
	importOf    kind = iota // an import; name is its path
	callOf                  // a call: x.name() is a method unless x names an import
	literal                 // a string literal; name is its unquoted value
	declOf                  // a function or method; recv is the receiver's type
	ifaceOf                 // an interface's method; recv is the interface
	embedOf                 // an embedded struct or interface member
	assertOf                // a type asserted or switched on
	compositeOf             // a composite literal's type
	assignOf                // a field assigned through a selector (x.name = …)
)

// A fact is one thing a rule can ask of a file: a name at a position and
// the import it resolves through (pkg "" for none).
type fact struct {
	kind      kind
	pos       token.Pos
	pkg, name string
	recv      string
	method    bool
	args      []ast.Expr
}

func (x fact) is(pkg string, names ...string) bool { return x.pkg == pkg && in(x.name, names...) }

// load walks the module as the go tool does, skipping directories whose
// names start with "." or "_", testdata, and bench/ (a module of its own),
// and parses every Go file once.
func load(t testing.TB) *module {
	root := filepath.Join("..", "..")
	m := &module{fset: token.NewFileSet(), paths: map[string]bool{}, names: map[string]string{}, docs: map[string]string{}}
	srcs := map[*ast.File]string{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || p == root {
			return err
		}
		rel, err := filepath.Rel(root, p)
		rel, name := filepath.ToSlash(rel), d.Name()
		switch {
		case err != nil:
			return err
		case d.IsDir() && (name[0] == '.' || name[0] == '_' || name == "testdata" || rel == "bench"):
			return filepath.SkipDir
		case name[0] == '.' || name[0] == '_':
			return nil
		}
		m.paths[rel] = true
		if d.IsDir() || !strings.HasSuffix(name, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		af, err := parser.ParseFile(m.fset, rel, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		srcs[af] = string(src)
		if !strings.HasSuffix(rel, "_test.go") {
			m.names[path.Dir(rel)] = af.Name.Name
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for af, src := range srcs { // after the walk: resolving imports needs every package's name
		m.files = append(m.files, m.index(m.fset.Position(af.Pos()).Filename, src, af))
	}
	for _, d := range docFiles {
		b, err := os.ReadFile(filepath.Join(root, d))
		if err != nil {
			t.Fatal(err)
		}
		m.docs[d] = string(b)
	}
	return m
}

// with returns m with the fixture's files added, replacing any at the same
// path: a path ending in ".go" is Go source, any other a document.
func (m *module) with(t testing.TB, fixture map[string]string) *module {
	fm := &module{fset: m.fset, paths: maps.Clone(m.paths), names: m.names, docs: maps.Clone(m.docs)}
	for _, f := range m.files {
		if _, ok := fixture[f.path]; !ok {
			fm.files = append(fm.files, f)
		}
	}
	for p, src := range fixture {
		for d := p; d != "."; d = path.Dir(d) {
			fm.paths[d] = true
		}
		if !strings.HasSuffix(p, ".go") {
			fm.docs[p] = src
			continue
		}
		af, err := parser.ParseFile(m.fset, p, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("fixture %s: %v", p, err)
		}
		fm.files = append(fm.files, m.index(p, src, af))
	}
	return fm
}

// index resolves af's imports and collects the facts every rule reads, so
// the tree is walked once however many rules there are.
func (m *module) index(rel, src string, af *ast.File) *file {
	f := &file{path: rel, dir: path.Dir(rel), test: strings.HasSuffix(rel, "_test.go"), src: src, ast: af, names: map[string]string{}}
	for _, is := range af.Imports {
		p, _ := strconv.Unquote(is.Path.Value)
		if p == modulePath {
			p = "."
		}
		p = strings.TrimPrefix(p, modulePath+"/")
		f.facts = append(f.facts, fact{kind: importOf, pos: is.Pos(), name: p})
		name := m.names[p]
		if elems := strings.Split(p, "/"); name == "" { // the standard library: the last element, a major version aside
			name = elems[len(elems)-1]
			if len(elems) > 1 && name[0] == 'v' && strings.Trim(name[1:], "0123456789") == "" {
				name = elems[len(elems)-2]
			}
		}
		switch {
		case is.Name == nil:
			f.names[name] = p
		case is.Name.Name == ".":
			f.dots = append(f.dots, p)
		case is.Name.Name != "_":
			f.names[is.Name.Name] = p
		}
	}
	add := func(k kind, e ast.Expr) {
		for _, x := range f.resolve(e) {
			x.kind = k
			f.facts = append(f.facts, x)
		}
	}
	embeds := func(fl *ast.FieldList) {
		for _, fd := range fl.List {
			if len(fd.Names) == 0 {
				add(embedOf, fd.Type)
			}
		}
	}
	ast.Inspect(af, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			d := fact{kind: declOf, pos: n.Pos(), name: n.Name.Name}
			if n.Recv != nil {
				d.recv = f.resolve(n.Recv.List[0].Type)[0].name
			}
			f.facts = append(f.facts, d)
		case *ast.CallExpr:
			_, sel := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			for _, x := range f.resolve(ast.Unparen(n.Fun)) {
				x.kind, x.method, x.args = callOf, sel && x.pkg == "", n.Args
				f.facts = append(f.facts, x)
			}
		case *ast.BasicLit:
			if v, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil {
				f.facts = append(f.facts, fact{kind: literal, pos: n.Pos(), name: v})
			}
		case *ast.TypeSpec:
			if it, ok := n.Type.(*ast.InterfaceType); ok {
				for _, fl := range it.Methods.List {
					for _, id := range fl.Names {
						f.facts = append(f.facts, fact{kind: ifaceOf, pos: id.Pos(), name: id.Name, recv: n.Name.Name})
					}
				}
			}
		case *ast.StructType:
			embeds(n.Fields)
		case *ast.InterfaceType:
			embeds(n.Methods)
		case *ast.TypeAssertExpr:
			if n.Type != nil {
				add(assertOf, n.Type)
			}
		case *ast.CaseClause: // a type switch's types; an expression switch's values name no rule's types
			for _, e := range n.List {
				add(assertOf, e)
			}
		case *ast.CompositeLit:
			if n.Type != nil {
				add(compositeOf, n.Type)
			}
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if s, ok := l.(*ast.SelectorExpr); ok {
					f.facts = append(f.facts, fact{kind: assignOf, pos: s.Sel.Pos(), name: s.Sel.Name})
				}
			}
		}
		return !f.test || n == af
	})
	return f
}

// resolve names what a name or type expression refers to: a qualified name
// its import, an unqualified one itself and each dot import. A pointer or
// a generic instantiation resolves to its base.
func (f *file) resolve(e ast.Expr) []fact {
	switch e := e.(type) {
	case *ast.StarExpr:
		return f.resolve(e.X)
	case *ast.IndexExpr:
		return f.resolve(e.X)
	case *ast.IndexListExpr:
		return f.resolve(e.X)
	case *ast.Ident:
		xs := []fact{{pos: e.Pos(), name: e.Name}}
		for _, p := range f.dots {
			xs = append(xs, fact{pos: e.Pos(), pkg: p, name: e.Name})
		}
		return xs
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok && f.names[x.Name] != "" {
			return []fact{{pos: e.Sel.Pos(), pkg: f.names[x.Name], name: e.Sel.Name}}
		}
		return []fact{{pos: e.Sel.Pos(), name: e.Sel.Name}}
	}
	return []fact{{pos: e.Pos()}}
}

// in reports whether path lies in one of places: a file, or a directory
// when the place ends in "/".
func in(path string, places ...string) bool {
	for _, p := range places {
		if path == p || strings.HasSuffix(p, "/") && strings.HasPrefix(path, p) {
			return true
		}
	}
	return false
}

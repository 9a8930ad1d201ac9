package archtest

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
)

// A decl is one top-level product declaration: a function, a method, a
// type spec or a value spec with all its names.
type decl struct {
	node ast.Node   // *ast.FuncDecl, *ast.TypeSpec or *ast.ValueSpec
	name *ast.Ident // its first name
	also ast.Node   // for a const spec without values, the spec it repeats
}

// dynamic names the methods the standard library looks up through
// interfaces it declares inside function bodies (errors' Unwrap, Is and
// As) or prints through (fmt's Format and GoString).
var dynamic = []string{"Unwrap", "Is", "As", "Format", "GoString"}

// unreached lists the product packages that no command, example, the SDK
// root, bench/ or a reached package's tests imports, and, in the reached
// ones, the declarations no root reaches. The roots are main and init
// functions, _ declarations, the SDK root's exported API with the
// exported methods of every module type it exposes, and whatever bench/
// or a test refers to. A declaration is reached when a reached one refers
// to it, or when it is a method of a reached type that fills an interface
// declared in the module or the packages it imports.
func unreached(m *module) (bad []string) {
	t := m.check()
	bad = append(bad, t.errs...)

	imports := map[string][]string{} // package dir → what its files import: a reached package's tests reach too
	var todo []string                // the roots: commands, examples, the SDK root and bench/
	product := map[string]bool{}
	for _, f := range m.files {
		if !f.test {
			product[f.dir] = true
			if f.dir == "." || f.ast.Name.Name == "main" {
				todo = append(todo, f.dir)
			}
		}
		for _, x := range f.facts {
			if x.kind == importOf {
				imports[f.dir] = append(imports[f.dir], x.name)
			}
		}
	}
	for _, p := range t.pkgs["bench"].Imports() {
		if dir, ok := moduleDir(p.Path()); ok {
			todo = append(todo, dir)
		}
	}
	live := map[string]bool{}
	for len(todo) > 0 {
		p := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		if !live[p] {
			live[p] = true
			todo = append(todo, imports[p]...)
		}
	}

	var decls []*decl
	for _, f := range m.files {
		if !product[f.dir] || !live[f.dir] {
			if !f.test {
				bad = append(bad, m.fset.Position(f.ast.Package).String()+": package "+f.dir+" is reached by no command, example, the SDK root, bench/ or a reached package's test")
			}
			continue
		}
		if f.test {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				decls = append(decls, &decl{node: d, name: d.Name})
			case *ast.GenDecl:
				var last ast.Node
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						decls = append(decls, &decl{node: s, name: s.Name})
					case *ast.ValueSpec:
						x := &decl{node: s, name: s.Names[0]}
						if len(s.Values) > 0 {
							last = s
						} else if d.Tok == token.CONST {
							x.also = last
						}
						decls = append(decls, x)
					}
				}
			}
		}
	}
	slices.SortFunc(decls, func(a, b *decl) int { return int(a.node.Pos() - b.node.Pos()) })

	reached := map[*decl]bool{}
	var work []*decl
	reach := func(pos token.Pos) { // the declaration around pos, if it is one
		i := sort.Search(len(decls), func(i int) bool { return decls[i].node.Pos() > pos }) - 1
		if i >= 0 && pos < decls[i].node.End() && !reached[decls[i]] {
			reached[decls[i]] = true
			work = append(work, decls[i])
		}
	}
	refs := func(n ast.Node, info *types.Info) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
				reach(info.Uses[id].Pos())
			}
			return true
		})
	}

	for _, d := range decls {
		fd, fn := d.node.(*ast.FuncDecl)
		vs, _ := d.node.(*ast.ValueSpec)
		if fn && fd.Recv == nil && (d.name.Name == "init" || d.name.Name == "main" || d.name.Name == "_") ||
			vs != nil && slices.ContainsFunc(vs.Names, func(id *ast.Ident) bool { return id.Name == "_" }) {
			reach(d.name.Pos())
		}
	}
	exposed := map[types.Type]bool{}
	var expose func(types.Type)
	expose = func(typ types.Type) { // the SDK's API reaches what it shows of module types
		if exposed[typ] {
			return
		}
		exposed[typ] = true
		switch x := typ.(type) {
		case *types.Alias:
			expose(types.Unalias(x))
		case *types.Named:
			if x.Obj().Pkg() == nil {
				return
			}
			if _, ok := moduleDir(x.Obj().Pkg().Path()); !ok {
				return
			}
			reach(x.Obj().Pos())
			ms := types.NewMethodSet(types.NewPointer(x))
			for i := range ms.Len() {
				if f := ms.At(i).Obj(); f.Exported() {
					reach(f.Pos())
					expose(f.Type())
				}
			}
			expose(x.Underlying())
		case *types.Pointer:
			expose(x.Elem())
		case *types.Slice:
			expose(x.Elem())
		case *types.Array:
			expose(x.Elem())
		case *types.Chan:
			expose(x.Elem())
		case *types.Map:
			expose(x.Key())
			expose(x.Elem())
		case *types.Signature:
			expose(x.Params())
			expose(x.Results())
		case *types.Tuple:
			for i := range x.Len() {
				expose(x.At(i).Type())
			}
		case *types.Struct:
			for i := range x.NumFields() {
				if f := x.Field(i); f.Exported() || f.Embedded() {
					reach(f.Pos())
					expose(f.Type())
				}
			}
		case *types.Interface:
			for i := range x.NumMethods() {
				expose(x.Method(i).Type())
			}
		}
	}
	root := t.pkgs["."].Scope()
	for _, name := range root.Names() {
		if o := root.Lookup(name); o.Exported() {
			reach(o.Pos())
			expose(o.Type())
		}
	}
	for _, f := range m.files {
		if f.test && (live[f.dir] || !product[f.dir]) {
			refs(f.ast, t.tests)
		}
	}
	for _, af := range m.bench {
		refs(af, t.info)
	}

	ifaces := interfaces(t)
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		refs(d.node, t.info)
		if d.also != nil {
			refs(d.also, t.info)
		}
		if _, spec := d.node.(*ast.TypeSpec); !spec {
			continue
		}
		named, ok := t.info.Defs[d.name].Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		ms := types.NewMethodSet(ptr)
		for i := range ms.Len() {
			f := ms.At(i).Obj()
			fills := slices.Contains(dynamic, f.Name())
			for _, it := range ifaces[f.Name()] {
				fills = fills || types.Implements(named, it) || types.Implements(ptr, it)
			}
			if fills {
				reach(f.Pos())
			}
		}
	}

	for _, d := range decls {
		if !reached[d] {
			name := d.name.Name
			if fd, ok := d.node.(*ast.FuncDecl); ok && fd.Recv != nil {
				name = "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + name
			}
			bad = append(bad, m.fset.Position(d.name.Pos()).String()+": "+name+" is reached by no main, init or _ declaration, SDK export, bench/ or test")
		}
	}
	return bad
}

// interfaces indexes by method name every non-empty interface the module
// declares, named or not, and every named one of the packages it imports,
// error included.
func interfaces(t *typed) map[string][]*types.Interface {
	index := map[string][]*types.Interface{}
	add := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := range it.NumMethods() {
				index[it.Method(i).Name()] = append(index[it.Method(i).Name()], it)
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	for e, tv := range t.info.Types {
		if _, ok := e.(*ast.InterfaceType); ok {
			add(tv.Type)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if _, mod := moduleDir(p.Path()); !mod {
					add(tn.Type())
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range t.pkgs {
		walk(p)
	}
	return index
}

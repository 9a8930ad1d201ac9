package archtest

import (
	"go/ast"
	"go/types"
	"strings"
)

// orderFree are the ranges over a map whose order cannot be seen, by file
// and enclosing function, each with the reason.
var orderFree = []struct{ file, fn, why string }{
	{"internal/core/app.go", "Kill", "stops timers, and a stopped timer posts nothing"},
	{"internal/hosting/hosting.go", "Usage", "sums integers"},
	{"internal/llenc/derive.go", "lookup", "copies every entry into a new map"},
	{"internal/rpc/client.go", "evictIdle", "deletes entries, each on a test of its own value"},
}

// mapOrder lists the ranges over a map in the SDK root and the internal
// packages — the code a kernel task may call — whose iteration order,
// which Go draws anew on every pass, could reach a schedule or an output.
// A loop passes when it appends to a slice whose next use after the loop,
// in the same block, is a sort or slices call that orders it, or when it
// is on orderFree.
func mapOrder(m *module) (bad []string) {
	t := m.check()
	for _, f := range m.files {
		if f.test || f.ast.Name.Name == "main" {
			continue
		}
		for _, d := range f.ast.Decls {
			fn := ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(d, func(n ast.Node) bool {
				var list []ast.Stmt
				switch n := n.(type) {
				case *ast.BlockStmt:
					list = n.List
				case *ast.CaseClause:
					list = n.Body
				case *ast.CommClause:
					list = n.Body
				}
				for i, st := range list {
					if l, ok := st.(*ast.LabeledStmt); ok {
						st = l.Stmt
					}
					rs, ok := st.(*ast.RangeStmt)
					if !ok || t.info.Types[rs.X].Type == nil {
						continue
					}
					if _, ok := t.info.Types[rs.X].Type.Underlying().(*types.Map); !ok || sortedAfter(t.info, rs, list[i+1:]) || free(f.path, fn) {
						continue
					}
					bad = append(bad, m.fset.Position(rs.Pos()).String()+": ranges over the map "+types.ExprString(rs.X)+" in "+fn+
						": sort what the loop collects before using it, or list the loop in orderFree with why its order cannot be seen")
				}
				return true
			})
		}
	}
	return bad
}

// sortedAfter reports whether rs appends to a slice variable whose first
// use among the statements after it is a call that sorts it.
func sortedAfter(info *types.Info, rs *ast.RangeStmt, after []ast.Stmt) bool {
	obj := func(e ast.Expr) types.Object {
		if c, ok := e.(*ast.CallExpr); ok && len(c.Args) == 1 { // a conversion: sort.Sort(byKey(s))
			e = c.Args[0]
		}
		if id, ok := e.(*ast.Ident); ok {
			return info.ObjectOf(id)
		}
		return nil
	}
	built := map[types.Object]bool{}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if c, ok := as.Rhs[0].(*ast.CallExpr); ok && types.ExprString(c.Fun) == "append" && obj(as.Lhs[0]) != nil {
				built[obj(as.Lhs[0])] = true
			}
		}
		return true
	})
	for v := range built {
		for _, st := range after {
			used, sorted := false, false
			ast.Inspect(st, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok && len(c.Args) > 0 && obj(c.Args[0]) == v && sorts(info, c.Fun) {
					sorted = true
				}
				if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == v {
					used = true
				}
				return true
			})
			if used {
				if sorted {
					return true
				}
				break
			}
		}
	}
	return false
}

// sorts reports whether fun names an ordering function of sort or slices.
func sorts(info *types.Info, fun ast.Expr) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := info.ObjectOf(id).(*types.PkgName)
	if !ok {
		return false
	}
	switch pkg.Imported().Path() {
	case "slices":
		return strings.HasPrefix(sel.Sel.Name, "Sort")
	case "sort":
		return in(sel.Sel.Name, "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s")
	}
	return false
}

// free reports whether the ranges over a map in fn of file are on orderFree.
func free(file, fn string) bool {
	for _, e := range orderFree {
		if e.file == file && e.fn == fn {
			return true
		}
	}
	return false
}

package virtnet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// queueSeams lists the slice queues that stay slices, keyed as the census
// names a site (package.Type.field for a receiver's field), each with its
// reason. Keep it at 2 entries or fewer.
var queueSeams = map[string]string{
	"sim.Cond.waiters": "a waiter whose timed wait expires leaves from the middle of the list, which a FIFO cannot do",
}

// TestEveryQueueIsADeque fails on a hand-rolled slice FIFO in a non-test
// file under internal/ or cmd/: `x = x[1:]`, which reallocates whenever the
// consumed head catches up with capacity, or `copy(x, x[1:])`, which moves
// the whole queue on every pop. container.Deque is the stack's one FIFO. A
// site stays only as a queueSeams entry; an entry that names no site is
// stale and fails.
func TestEveryQueueIsADeque(t *testing.T) {
	if len(queueSeams) > 2 {
		t.Fatalf("queueSeams has %d entries; keep it at 2 or fewer", len(queueSeams))
	}
	fset := token.NewFileSet()
	found := map[string][]string{} // site -> positions
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if x := headDrop(n); x != nil {
						site := queueSite(f.Name.Name, fd, x)
						found[site] = append(found[site], fset.Position(n.Pos()).String())
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var bad []string
	for site, at := range found {
		if _, ok := queueSeams[site]; !ok {
			bad = append(bad, site+" ("+strings.Join(at, ", ")+")")
		}
	}
	for site := range queueSeams {
		if found[site] == nil {
			bad = append(bad, site+" (stale queueSeams entry: no such slice queue)")
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		t.Errorf("%d slice queues; make each a container.Deque:\n\t%s", len(bad), strings.Join(bad, "\n\t"))
	}
}

// headDrop returns x when n drops the head of slice x: `x = x[1:]` or
// `copy(x, x[1:])`.
func headDrop(n ast.Node) ast.Expr {
	var dst, src ast.Expr
	switch n := n.(type) {
	case *ast.AssignStmt:
		if n.Tok != token.ASSIGN || len(n.Lhs) != 1 || len(n.Rhs) != 1 {
			return nil
		}
		dst, src = n.Lhs[0], n.Rhs[0]
	case *ast.CallExpr:
		if id, ok := n.Fun.(*ast.Ident); !ok || id.Name != "copy" || len(n.Args) != 2 {
			return nil
		}
		dst, src = n.Args[0], n.Args[1]
	default:
		return nil
	}
	s, ok := src.(*ast.SliceExpr)
	if !ok || s.High != nil || types.ExprString(s.X) != types.ExprString(dst) {
		return nil
	}
	if lit, ok := s.Low.(*ast.BasicLit); !ok || lit.Value != "1" {
		return nil
	}
	return dst
}

// queueSite names the queue x in function fd of package pkg: pkg.Type.field
// when x is a field of fd's receiver, else pkg.func: x.
func queueSite(pkg string, fd *ast.FuncDecl, x ast.Expr) string {
	if sel, ok := x.(*ast.SelectorExpr); ok && fd.Recv != nil && len(fd.Recv.List[0].Names) == 1 {
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == fd.Recv.List[0].Names[0].Name {
			typ := fd.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			return pkg + "." + types.ExprString(typ) + "." + sel.Sel.Name
		}
	}
	return pkg + "." + fd.Name.Name + ": " + types.ExprString(x)
}

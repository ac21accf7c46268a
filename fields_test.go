package virtnet

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// stateSeams lists every struct field under internal/ and cmd/ that only
// _test.go files read, with the reason a test needs it. A field gains a
// non-test reader, or goes, or is listed here.
var stateSeams = map[string]string{
	"bench.simPerfResult.Mallocs": "TestTracingDisabledAllocBudget's mallocs/msg gate; the simperf row prints virtual time only",
	"nic.RecvMsg.Arrive":          "NI-only tests have no host thread to timestamp a deposit; the NI's own stamp is the instant they check",
	"obs.Decomp.Partial":          "the decomposition test sees shard-boundary segments set aside, not merely missing from N",
	"sim.Proc.name":               "Spawn(name, fn) is the API benchmarks/vnperf calls, which only a benchmark change may touch; TestProcNameAndDone pins the name",
}

// TestEveryFieldIsRead fails on a struct field declared in a non-test file
// under internal/ or cmd/ that
//   - no file of the module reads;
//   - only _test.go files read, unless stateSeams lists it;
//
// and on a stateSeams entry that a non-test file reads or that no longer
// exists. A read is any use of the field but as the whole target of =, op=,
// ++ or --, or as a composite-literal key: state that is only written is
// never acted on. Using a struct type as a map key, or a struct value as an
// operand of == or !=, reads every field of it. Uses resolve by object with
// go/types, and a use of a field of an instantiated generic counts for its
// origin.
//
// Fields with a struct tag (encoding/json reads them), embedded fields and _
// fields are not held to the rule.
func TestEveryFieldIsRead(t *testing.T) {
	m := loadModule(t)
	var unread, testOnly, stale []string
	declared := map[string]bool{}
	for _, f := range m.structFields {
		declared[f.name] = true
		_, listed := stateSeams[f.name]
		switch outsideTests, ok := m.read[f.v]; {
		case !ok:
			unread = append(unread, f.name)
		case outsideTests && listed:
			stale = append(stale, f.name+": a non-test file reads it")
		case outsideTests:
		case !listed:
			testOnly = append(testOnly, f.name)
		}
	}
	for name := range stateSeams {
		if !declared[name] {
			stale = append(stale, name+": not declared")
		}
	}
	for _, l := range [][]string{unread, testOnly, stale} {
		sort.Strings(l)
	}
	if len(unread) > 0 {
		t.Errorf("%d struct fields are read nowhere in the module; delete each, with what only feeds it:\n\t%s",
			len(unread), strings.Join(unread, "\n\t"))
	}
	if len(testOnly) > 0 {
		t.Errorf("%d struct fields are read only by tests; delete each and have the tests assert through what the program shows, or list it in stateSeams:\n\t%s",
			len(testOnly), strings.Join(testOnly, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("%d stateSeams entries are stale; delete each:\n\t%s", len(stale), strings.Join(stale, "\n\t"))
	}
}

// structField is one field the state census holds to being read.
type structField struct {
	v    *types.Var
	name string // pkg.Type.field
}

// declareFields records the untagged, named fields of every struct type
// written in f, named after the type that encloses them.
func (m *moduleCensus) declareFields(pkg *types.Package, f *ast.File, info *types.Info) {
	var outer []string
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case nil:
			return false
		case *ast.TypeSpec:
			outer = append(outer, n.Name.Name)
			ast.Inspect(n.Type, func(c ast.Node) bool { return m.declareStruct(pkg, c, info, outer) })
			outer = outer[:len(outer)-1]
			return false
		case *ast.FuncDecl:
			outer = append(outer, n.Name.Name)
			if n.Body != nil {
				ast.Inspect(n.Body, func(c ast.Node) bool { return m.declareStruct(pkg, c, info, outer) })
			}
			outer = outer[:len(outer)-1]
			return false
		}
		return m.declareStruct(pkg, n, info, outer)
	})
}

func (m *moduleCensus) declareStruct(pkg *types.Package, n ast.Node, info *types.Info, outer []string) bool {
	st, ok := n.(*ast.StructType)
	if !ok {
		return true
	}
	for _, fd := range st.Fields.List {
		if fd.Tag != nil {
			continue
		}
		for _, id := range fd.Names {
			if id.Name != "_" {
				m.structFields = append(m.structFields, structField{info.Defs[id].(*types.Var), pkg.Name() + "." + strings.Join(outer, ".") + "." + id.Name})
			}
		}
	}
	return true
}

// collectReads records every field the package's files read, and whether a
// non-test file does.
func (m *moduleCensus) collectReads(info *types.Info, files []*ast.File) {
	read := func(v *types.Var, at token.Pos) {
		v = v.Origin()
		m.read[v] = m.read[v] || !strings.HasSuffix(m.fset.File(at).Name(), "_test.go")
	}
	compare := func(t types.Type, at token.Pos) {
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				read(st.Field(i), at)
			}
		}
	}
	written := map[ast.Expr]bool{}
	target := func(e ast.Expr) {
		for {
			p, ok := e.(*ast.ParenExpr)
			if !ok {
				break
			}
			e = p.X
		}
		written[e] = true
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, l := range n.Lhs {
						target(l)
					}
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if e != nil {
							target(e)
						}
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					compare(info.TypeOf(n.X), n.Pos())
				}
			}
			return true
		})
	}
	for e, tv := range info.Types {
		if mt, ok := tv.Type.Underlying().(*types.Map); ok {
			compare(mt.Key(), e.Pos())
		}
	}
	for sel, s := range info.Selections {
		if s.Kind() == types.FieldVal && !written[sel] {
			read(s.Obj().(*types.Var), sel.Pos())
		}
	}
}

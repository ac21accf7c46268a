package virtnet

import (
	"go/ast"
	"go/types"
	"os"
	"sort"
	"strings"
	"testing"
)

// seam is an exported name that only _test.go files use and that stays. It
// is one of two kinds, and the census checks which:
//   - paper == "": a test in another package reads it, to see state that no
//     other exported name shows;
//   - paper != "": an operation PAPER.md's substitution table names that no
//     program drives; paper is the table's word for it, on the row that
//     names the declaring package.
type seam struct{ paper, why string }

// testSeams lists every exported name under internal/ and cmd/ that only
// tests use. A name gains a non-test user, or goes, or is listed here.
var testSeams = map[string]seam{
	"glunix.Monitor.Dead":   {why: "TestPolicyDefaults sees the monitor declare a silent node dead"},
	"nic.NIC.Endpoint":      {why: "hostos's tests see a freed endpoint leave the NI"},
	"nic.NIC.PoolStats":     {why: "core's pool test sees every descriptor and header back in the NI's pools"},
	"obs.Tracer.Finalized":  {why: "the external obs_test package reads the finished flights"},
	"obs.Tracer.OpenCount":  {why: "the external obs_test package sees every flight closed"},
	"reliab.Breaker.State":  {why: "TestPolicyDefaults and rpc's tests see a breaker open and half-open"},
	"hostos.Driver.PageOut": {paper: "on-disk", why: "the only way into Fig. 2's on-disk state"},
	"mpi.Comm.Bcast":        {paper: "bcast", why: "no row broadcasts on its own; TestCollectiveInstants pins it"},
	"mpi.Comm.Gather":       {paper: "gather", why: "no row gathers"},
	"mpi.Comm.Reduce":       {paper: "reduce", why: "no row reduces to one root; TestCollectiveInstants pins it"},
	"splitc.Rank.Get":       {paper: "get", why: "no row reads remote memory by itself"},
	"splitc.Rank.Put":       {paper: "put", why: "no row writes remote memory by itself"},
}

// TestEveryExportedNameIsUsed fails on an exported name declared in a
// non-test file under internal/ or cmd/ -- a function, a method of an
// exported type, or a package-level const, var or type -- that
//   - nothing in the module refers to (tests, examples and benchmarks
//     included);
//   - only _test.go files refer to, unless testSeams lists it;
//
// and on a testSeams entry that a non-test file refers to, that no longer
// exists, or that is not of its kind. Uses resolve by object with go/types,
// so a called method of the same name on another type never vouches for one
// nothing calls; a use of an instantiated generic counts for its origin.
//
// A method callers reach only through an interface counts as used when its
// type satisfies fmt.Stringer, error (Is and Unwrap included) or an interface
// the module declares with that method.
func TestEveryExportedNameIsUsed(t *testing.T) {
	m := loadModule(t)
	ifaces := m.interfaces(t)
	table := substitutionTable(t)
	var unused, testOnly, stale []string
	declared := map[string]bool{}
	for _, obj := range m.names {
		name := obj.Pkg().Name() + "." + obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			if recv := recvType(fn); recv != nil {
				if satisfies(ifaces, recv, fn.Name()) {
					continue
				}
				name = obj.Pkg().Name() + "." + recv.Obj().Name() + "." + fn.Name()
			}
		}
		declared[name] = true
		s, listed := testSeams[name]
		switch outsideTests, ok := m.used[obj]; {
		case !ok:
			unused = append(unused, name)
		case outsideTests && listed:
			stale = append(stale, name+": a non-test file uses it")
		case outsideTests:
		case !listed:
			testOnly = append(testOnly, name)
		case s.paper == "" && !m.crossTest[obj]:
			stale = append(stale, name+": no test of another package uses it")
		case s.paper != "" && !strings.Contains(table[obj.Pkg().Name()], s.paper):
			stale = append(stale, name+": PAPER.md's substitution table has no "+s.paper+" on internal/"+obj.Pkg().Name()+"'s row")
		}
	}
	for name := range testSeams {
		if !declared[name] {
			stale = append(stale, name+": not declared")
		}
	}
	for _, l := range [][]string{unused, testOnly, stale} {
		sort.Strings(l)
	}
	if len(unused) > 0 {
		t.Errorf("%d exported names are used nowhere in the module; delete each, or unexport it:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
	if len(testOnly) > 0 {
		t.Errorf("%d exported names are used only by tests; delete each, have its own package's tests read what it returns, or list it in testSeams:\n\t%s",
			len(testOnly), strings.Join(testOnly, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("%d testSeams entries are stale; delete each:\n\t%s", len(stale), strings.Join(stale, "\n\t"))
	}
}

// substitutionTable maps a package name to the rows of PAPER.md's
// substitution table that name internal/<pkg>, lower-cased.
func substitutionTable(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile("PAPER.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(b), "\nSubstitutions")
	if !ok {
		t.Fatal("PAPER.md has no substitution table")
	}
	rows := map[string]string{}
	for _, line := range strings.Split(rest, "\n")[1:] {
		if line != "" && !strings.HasPrefix(line, "|") {
			break
		}
		for _, f := range strings.Split(line, "`internal/")[1:] {
			pkg, _, _ := strings.Cut(f, "`")
			rows[pkg] += strings.ToLower(line) + "\n"
		}
	}
	return rows
}

// satisfies reports whether *recv implements one of ifaces that has a method
// called name; the first of ifaces is error, which also vouches for Is and
// Unwrap.
func satisfies(ifaces []*types.Interface, recv *types.Named, name string) bool {
	for i, iface := range ifaces {
		has, _, _ := types.LookupFieldOrMethod(iface, false, nil, name)
		if (has != nil || i == 0 && (name == "Is" || name == "Unwrap")) && types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// recvType is the named type a method is declared on, or nil for a function.
func recvType(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// declareNames records the exported functions of f, the exported methods of
// its exported types, and its exported package-level consts, vars and types.
func (m *moduleCensus) declareNames(f *ast.File, info *types.Info) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() {
				fn := info.Defs[d.Name].(*types.Func)
				if recv := recvType(fn); recv == nil || recv.Obj().Exported() {
					m.names = append(m.names, fn)
				}
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				var ids []*ast.Ident
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					ids = spec.Names
				case *ast.TypeSpec:
					ids = []*ast.Ident{spec.Name}
				}
				for _, id := range ids {
					if id.IsExported() {
						m.names = append(m.names, info.Defs[id])
					}
				}
			}
		}
	}
}

// collectUses records every name the package refers to, whether a non-test
// file does, and whether a test file of another package does, and the
// interfaces the package declares.
func (m *moduleCensus) collectUses(pkg *types.Package, info *types.Info) {
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		test := strings.HasSuffix(m.fset.File(id.Pos()).Name(), "_test.go")
		m.used[obj] = m.used[obj] || !test
		if test && obj.Pkg() != pkg {
			m.crossTest[obj] = true
		}
	}
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				m.ifaces = append(m.ifaces, iface)
			}
		}
	}
}

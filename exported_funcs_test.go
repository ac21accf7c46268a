package virtnet

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// TestEveryExportedFuncIsCalled fails on any exported function, or exported
// method of an exported type, declared in a non-test file under internal/ or
// cmd/ that nothing in the module refers to (tests, examples and benchmarks
// included). Uses resolve by object with go/types, so a called method of the
// same name on another type never vouches for one nothing calls; a use of an
// instantiated generic counts for its origin.
//
// A method callers reach only through an interface counts as called when its
// type satisfies fmt.Stringer, error (Is and Unwrap included) or an interface
// the module declares with that method.
//
// Run with -v for the functions only _test.go files refer to: each is API
// that no program, example or benchmark uses, kept alive by its own tests.
func TestEveryExportedFuncIsCalled(t *testing.T) {
	m := loadModule(t)
	fmtPkg, err := m.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	errorIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	ifaces := append([]*types.Interface{errorIface, fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface)}, m.ifaces...)
	var uncalled []string
	for _, fn := range m.funcs {
		recv := recvType(fn)
		if recv != nil && satisfies(ifaces, recv, fn.Name()) {
			continue
		}
		name := fn.Pkg().Name() + "." + fn.Name()
		if recv != nil {
			name = fn.Pkg().Name() + "." + recv.Obj().Name() + "." + fn.Name()
		}
		switch outsideTests, ok := m.called[fn]; {
		case !ok:
			uncalled = append(uncalled, name)
		case !outsideTests && testing.Verbose():
			t.Logf("test-only: %s", name)
		}
	}
	sort.Strings(uncalled)
	if len(uncalled) > 0 {
		t.Errorf("%d exported functions are called nowhere in the module; delete each, or unexport it:\n\t%s",
			len(uncalled), strings.Join(uncalled, "\n\t"))
	}
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

// declareFuncs records the exported functions of f and the exported methods
// of its exported types.
func (m *moduleCensus) declareFuncs(f *ast.File, info *types.Info) {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
			fn := info.Defs[fd.Name].(*types.Func)
			if recv := recvType(fn); recv == nil || recv.Obj().Exported() {
				m.funcs = append(m.funcs, fn)
			}
		}
	}
}

// collectUses records every function and method the package refers to, and
// whether a non-test file does, and the interfaces it declares.
func (m *moduleCensus) collectUses(pkg *types.Package, info *types.Info) {
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			fn = fn.Origin()
			m.called[fn] = m.called[fn] || !strings.HasSuffix(m.fset.File(id.Pos()).Name(), "_test.go")
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

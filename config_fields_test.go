package virtnet

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryConfigFieldIsSet enforces the house rule on settable values. Every
// non-struct field of a *Config or *Options struct declared under internal/
// or cmd/ must be set somewhere other than its own package's Default*
// functions: a literal key, an assignment, an increment or an address taken,
// in any Go file of the module (tests, examples and benchmarks included). A
// field nothing else sets always holds its default, so it is a constant.
//
// Fields are resolved by type with go/types, so a same-named field of
// another struct never vouches for one that nothing sets. Run with -v for the
// fields only tests set: each is a test seam, and it stays one only while no
// non-test caller needs a second value.
func TestEveryConfigFieldIsSet(t *testing.T) {
	m := loadModule(t)
	var unset []string
	for _, f := range m.fields {
		at := m.setters[f.v]
		tests := 0
		for _, p := range at {
			if strings.HasSuffix(p.Filename, "_test.go") {
				tests++
			}
		}
		switch {
		case len(at) == 0:
			unset = append(unset, f.name)
		case tests == len(at) && testing.Verbose():
			t.Logf("test-only: %s (%d setters)", f.name, tests)
		}
	}
	if len(unset) > 0 {
		t.Errorf("%d config fields are set nowhere but their package's Default* function; make each a constant:\n\t%s",
			len(unset), strings.Join(unset, "\n\t"))
	}
}

// moduleCensus is the module type-checked file by file: the config fields,
// exported names and struct fields declared under internal/ and cmd/, where
// each config field is set, which names anything refers to, which fields
// anything reads, and the interfaces the module declares.
type moduleCensus struct {
	fset    *token.FileSet
	std     types.Importer
	dirs    map[string]string // import path -> directory
	pkgs    map[string]*types.Package
	fields  []configField
	tracked map[*types.Var]bool
	setters map[*types.Var][]token.Position
	names   []types.Object
	used    map[types.Object]bool // referred to; true once a non-test file does
	// crossTest marks the names a test file of another package refers to.
	crossTest map[types.Object]bool
	ifaces    []*types.Interface
	// structFields are the fields the state census checks; read marks the
	// fields something reads, true once a non-test file does.
	structFields []structField
	read         map[*types.Var]bool
	// funcs are the functions with a body the signature census checks;
	// calls summarises the direct calls of each function, valueRef marks
	// the functions referred to other than as a callee, and benchCalls
	// names the functions a file under benchmarks/ calls.
	funcs      []*types.Func
	calls      map[*types.Func]*callSites
	valueRef   map[*types.Func]bool
	benchCalls map[string]bool
}

type configField struct {
	v    *types.Var
	name string // pkg.Type.Field
}

// loaded is the module census, type-checked once per test binary: the
// censuses share it.
var loaded *moduleCensus

func loadModule(t *testing.T) *moduleCensus {
	t.Helper()
	if loaded == nil {
		loaded = typeCheckModule(t)
	}
	return loaded
}

func typeCheckModule(t *testing.T) *moduleCensus {
	t.Helper()
	// Check the pure-Go standard library: with cgo on, the source importer
	// runs cgo and a C compiler for packages such as net.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	m := &moduleCensus{
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		dirs:       moduleDirs(t),
		pkgs:       map[string]*types.Package{},
		tracked:    map[*types.Var]bool{},
		setters:    map[*types.Var][]token.Position{},
		used:       map[types.Object]bool{},
		crossTest:  map[types.Object]bool{},
		read:       map[*types.Var]bool{},
		calls:      map[*types.Func]*callSites{},
		valueRef:   map[*types.Func]bool{},
		benchCalls: map[string]bool{},
	}
	paths := make([]string, 0, len(m.dirs))
	for p := range m.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	// Every package with its in-package tests first, so external test
	// packages and the fields' declarations see one object per field.
	for _, p := range paths {
		if _, err := m.Import(p); err != nil && !isNoGo(err) {
			t.Fatal(err)
		}
	}
	for _, p := range paths {
		bp, err := build.ImportDir(m.dirs[p], 0)
		if err != nil || len(bp.XTestGoFiles) == 0 {
			continue
		}
		if _, err := m.check(p+"_test", m.dirs[p], bp.XTestGoFiles, 0); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(m.fields, func(i, j int) bool { return m.fields[i].name < m.fields[j].name })
	return m
}

// moduleDirs maps the import path of every directory of the module, the
// go tool's testdata and hidden or underscore directories aside, to the
// directory.
func moduleDirs(t *testing.T) map[string]string {
	t.Helper()
	dirs := map[string]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs[importPath(path)] = path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

func importPath(dir string) string {
	if dir == "." {
		return "virtnet"
	}
	return "virtnet/" + filepath.ToSlash(dir)
}

func isNoGo(err error) bool {
	var ng *build.NoGoError
	return errors.As(err, &ng)
}

// Import type-checks a module package from source with its in-package test
// files, once; anything outside the module goes to the source importer.
func (m *moduleCensus) Import(path string) (*types.Package, error) {
	dir, ok := m.dirs[path]
	if !ok {
		return m.std.Import(path)
	}
	if p, ok := m.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	m.pkgs[path] = nil
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	decl := 0
	if strings.HasPrefix(path, "virtnet/internal/") || strings.HasPrefix(path, "virtnet/cmd/") {
		decl = len(bp.GoFiles)
	}
	p, err := m.check(path, dir, append(bp.GoFiles, bp.TestGoFiles...), decl)
	m.pkgs[path] = p
	return p, err
}

// check type-checks one package, records the config fields and exported
// names its first decl files declare, and records every field setter and
// name use in all its files.
func (m *moduleCensus) check(path, dir string, names []string, decl int) (*types.Package, error) {
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, n), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	for _, f := range files[:decl] {
		m.declare(pkg, f, info)
		m.declareNames(f, info)
		m.declareFields(pkg, f, info)
		m.declareFuncs(f, info)
	}
	for _, f := range files {
		m.collect(pkg, f, info)
	}
	m.collectUses(pkg, info)
	m.collectReads(info, files)
	m.collectCalls(info, files)
	return pkg, nil
}

func (m *moduleCensus) declare(pkg *types.Package, f *ast.File, info *types.Info) {
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			name := ts.Name.Name
			if !strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") {
				continue
			}
			st, ok := info.Defs[ts.Name].Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				v := st.Field(i)
				if _, isStruct := v.Type().Underlying().(*types.Struct); isStruct {
					continue
				}
				m.tracked[v] = true
				m.fields = append(m.fields, configField{v, pkg.Name() + "." + name + "." + v.Name()})
			}
		}
	}
}

// collect records the field setters in f. Two kinds of site in the package
// that declares the field only restate its default, so they do not count: a
// Default* function, and a zero-value fill (an assignment to the field
// directly under an if whose condition reads it).
func (m *moduleCensus) collect(pkg *types.Package, f *ast.File, info *types.Info) {
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		inDefault := ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Default")
		fill := map[ast.Node]bool{}
		set := func(v *types.Var, at ast.Node) {
			if v == nil || !m.tracked[v] || (inDefault || fill[at]) && v.Pkg() == pkg {
				return
			}
			m.setters[v] = append(m.setters[v], m.fset.Position(at.Pos()))
		}
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IfStmt:
				read := map[*types.Var]bool{}
				ast.Inspect(n.Cond, func(c ast.Node) bool {
					if e, ok := c.(ast.Expr); ok {
						if v := fieldOf(info, e); v != nil {
							read[v] = true
						}
					}
					return true
				})
				for _, st := range n.Body.List {
					if as, ok := st.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && read[fieldOf(info, as.Lhs[0])] {
						fill[as.Lhs[0]] = true
					}
				}
			case *ast.CompositeLit:
				var st *types.Struct
				if tv, ok := info.Types[n]; ok {
					st, _ = tv.Type.Underlying().(*types.Struct)
				}
				for i, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							v, _ := info.Uses[id].(*types.Var)
							set(v, id)
						}
					} else if st != nil {
						set(st.Field(i), el)
					}
				}
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, l := range n.Lhs {
						set(fieldOf(info, l), l)
					}
				}
			case *ast.IncDecStmt:
				set(fieldOf(info, n.X), n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					set(fieldOf(info, n.X), n.X)
				}
			}
			return true
		})
	}
}

// fieldOf returns the struct field e writes through (x.F, x.F[i], (x.F)),
// or nil.
func fieldOf(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				return sel.Obj().(*types.Var)
			}
			return nil
		default:
			return nil
		}
	}
}

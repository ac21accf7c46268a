package virtnet

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
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

// configSeam is a config field with one value in use that stays. It is one
// of two kinds, and the census checks which:
//   - vnperf: a file under benchmarks/ sets the field, so only a change to
//     the benchmark may fold it into a constant;
//   - reach: test names the _test.go declaration (pkg.Name, a test, its
//     helper or its table) that sets a second value, to reach a protocol
//     path in bounded virtual time or to match a value a committed
//     transcript pins.
type configSeam struct {
	vnperf bool
	test   string
	why    string
}

// configSeams lists every config field the value census flags that stays.
// Keep it at 8 entries or fewer.
var configSeams = map[string]configSeam{
	"nic.Config.InboundPool":          {test: "nic.TestInboundPoolOverrunNacks", why: "a 4-packet pool overruns under a 3-sender burst, so arrivals are NACKed; TestFirmwareTimeline's transcript pins 3"},
	"nic.Config.MaxRetries":           {test: "nic.TestChannelUnbindAfterBoundedRetries", why: "2 retries unbind the channel within 20 ms on a dead fabric; TestFirmwareTimeline's transcript pins 3"},
	"nic.Config.MinRTO":               {test: "nic.timelineSchedules", why: "TestFirmwareTimeline's transcript pins the adaptive timeout's clamp at 150 µs"},
	"nic.Config.RetransMax":           {test: "rpc.newBounceWorld", why: "an 80 µs backoff cap lands each return to sender within a few hundred µs, so the return tests reach their returns in bounded virtual time"},
	"nic.Config.ReturnToSenderAfter":  {test: "nic.TestProlongedAbsenceReturnsToSender", why: "5 ms returns a message to its sender within 100 ms on a dead fabric; TestFirmwareTimeline's transcript pins 20 ms and 4 ms"},
	"serve.ClientConfig.Deadline":     {vnperf: true, why: "benchmarks/vnperf's serve-kv sets its own kvDeadline, which today equals the serve row's 20 ms"},
	"serve.KVWorkloadConfig.IdemPuts": {vnperf: true, why: "benchmarks/vnperf's serve-kv sets it true, as the serve row does"},
}

const maxConfigSeams = 8

// TestEveryConfigFieldIsSet enforces the house rule on settable values: an
// option needs two values in use outside tests, or it is a constant. It
// holds every non-struct field of a *Config or *Options struct declared
// under internal/ or cmd/ to two rules.
//
// The field must be set somewhere other than its own package's Default*
// functions and zero-value fills (an assignment to the field directly under
// an if whose condition reads it): a literal key, an assignment, an
// increment or an address taken, in any Go file of the module, tests
// included. A field nothing else sets always holds its default.
//
// The field must take two values in the module's non-test files (cmd/,
// examples/ and benchmarks/ included). Its values are every constant
// assigned to it, in Default* and fills too, and its zero value when a
// literal of its struct leaves it out and no fill in its package replaces
// the zero. An assignment of anything but a constant, an op=, ++ or -- or an
// address taken makes the field vary, which passes. A field with one value
// stays only as a configSeams entry; a stale entry fails.
//
// Fields are resolved by type with go/types, so a same-named field of
// another struct never vouches for one that nothing sets. Run with -v for
// the seams and the fields only tests set.
func TestEveryConfigFieldIsSet(t *testing.T) {
	m := loadModule(t)
	var unset, oneValue, stale []string
	flagged := map[string]*types.Var{}
	for _, f := range m.fields {
		at := m.setters[f.v]
		tests := 0
		for _, p := range at {
			if strings.HasSuffix(p.Filename, "_test.go") {
				tests++
			}
		}
		if len(at) == 0 {
			unset = append(unset, f.name)
			continue
		}
		if tests == len(at) && testing.Verbose() {
			t.Logf("test-only: %s (%d setters)", f.name, tests)
		}
		vals := m.values[f.v]
		if vals.varies {
			continue
		}
		n := vals.count(f.v)
		if n >= 2 {
			continue
		}
		flagged[f.name] = f.v
		if s, ok := configSeams[f.name]; ok {
			if testing.Verbose() {
				t.Logf("seam: %s (%d value): %s", f.name, n, s.why)
			}
			continue
		}
		oneValue = append(oneValue, fmt.Sprintf("%s: %d value outside tests (%s)", f.name, n, vals))
	}
	for name, s := range configSeams {
		v, ok := flagged[name]
		switch {
		case !ok:
			stale = append(stale, name+": not a one-value field")
		case s.vnperf && !m.setUnder(v, "benchmarks/"):
			stale = append(stale, name+": no file under benchmarks/ sets it")
		case !s.vnperf && !m.testSetters[v][s.test]:
			stale = append(stale, name+": no _test.go declaration "+s.test+" sets it")
		}
	}
	if testing.Verbose() {
		t.Logf("%d settable values, %d of them seams", len(m.fields), len(configSeams))
	}
	sort.Strings(stale)
	if len(unset) > 0 {
		t.Errorf("%d config fields are set nowhere but their package's Default* function; make each a constant:\n\t%s",
			len(unset), strings.Join(unset, "\n\t"))
	}
	if len(oneValue) > 0 {
		t.Errorf("%d config fields take one value outside tests; make each a constant, or list it in configSeams:\n\t%s",
			len(oneValue), strings.Join(oneValue, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("%d configSeams entries are stale; delete each:\n\t%s", len(stale), strings.Join(stale, "\n\t"))
	}
	if len(configSeams) > maxConfigSeams {
		t.Errorf("configSeams has %d entries; the cap is %d", len(configSeams), maxConfigSeams)
	}
}

// fieldValues is what the module's non-test files assign one config field.
type fieldValues struct {
	consts  []constant.Value // distinct constants
	isNil   bool             // nil assigned
	varies  bool             // anything but a constant assigned
	omitted bool             // a literal of its struct leaves it out
	filled  bool             // a zero-value fill in its package replaces the zero
}

// add records one value assigned to the field; rhs nil means a value that is
// not a constant.
func (fv *fieldValues) add(info *types.Info, rhs ast.Expr) {
	if rhs == nil {
		fv.varies = true
		return
	}
	switch tv := info.Types[rhs]; {
	case tv.Value != nil:
		fv.addConst(tv.Value)
	case tv.IsNil():
		fv.isNil = true
	default:
		fv.varies = true
	}
}

func (fv *fieldValues) addConst(c constant.Value) {
	for _, have := range fv.consts {
		if sameConst(have, c) {
			return
		}
	}
	fv.consts = append(fv.consts, c)
}

// count is the number of distinct values v takes: its constants, nil, and
// its zero value when a literal leaves it out unreplaced.
func (fv fieldValues) count(v *types.Var) int {
	if fv.omitted && !fv.filled {
		if b, ok := v.Type().Underlying().(*types.Basic); ok {
			switch {
			case b.Info()&types.IsBoolean != 0:
				fv.addConst(constant.MakeBool(false))
			case b.Info()&types.IsString != 0:
				fv.addConst(constant.MakeString(""))
			default:
				fv.addConst(constant.MakeInt64(0))
			}
		} else {
			fv.isNil = true
		}
	}
	n := len(fv.consts)
	if fv.isNil {
		n++
	}
	return n
}

func (fv fieldValues) String() string {
	var s []string
	for _, c := range fv.consts {
		s = append(s, c.ExactString())
	}
	if fv.isNil {
		s = append(s, "nil")
	}
	if fv.omitted && !fv.filled {
		s = append(s, "zero")
	}
	return strings.Join(s, ", ")
}

// setUnder reports whether a file under dir sets v.
func (m *moduleCensus) setUnder(v *types.Var, dir string) bool {
	for _, p := range m.setters[v] {
		if strings.HasPrefix(p.Filename, dir) {
			return true
		}
	}
	return false
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
	setters map[*types.Var][]token.Position
	// values holds what non-test files assign each config field (it has a
	// key for every config field), and testSetters the _test.go
	// declarations (pkg.Name) that set it.
	values      map[*types.Var]*fieldValues
	testSetters map[*types.Var]map[string]bool
	names       []types.Object
	used        map[types.Object]bool // referred to; true once a non-test file does
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
		fset:        fset,
		std:         importer.ForCompiler(fset, "source", nil),
		dirs:        moduleDirs(t),
		pkgs:        map[string]*types.Package{},
		setters:     map[*types.Var][]token.Position{},
		values:      map[*types.Var]*fieldValues{},
		testSetters: map[*types.Var]map[string]bool{},
		used:        map[types.Object]bool{},
		crossTest:   map[types.Object]bool{},
		read:        map[*types.Var]bool{},
		calls:       map[*types.Func]*callSites{},
		valueRef:    map[*types.Func]bool{},
		benchCalls:  map[string]bool{},
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
				m.values[v] = &fieldValues{}
				m.testSetters[v] = map[string]bool{}
				m.fields = append(m.fields, configField{v, pkg.Name() + "." + name + "." + v.Name()})
			}
		}
	}
}

// collect records the field setters in f, and what a non-test f assigns
// each field. Two kinds of site in the package that declares the field only
// restate its default, so they are not setters: a Default* function, and a
// zero-value fill (an assignment to the field directly under an if whose
// condition reads it). Both still assign values.
func (m *moduleCensus) collect(pkg *types.Package, f *ast.File, info *types.Info) {
	test := strings.HasSuffix(m.fset.File(f.Pos()).Name(), "_test.go")
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		inDefault := ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Default")
		// decls names what d declares, as a reach seam names it.
		var decls []string
		if ok {
			decls = append(decls, fd.Name.Name)
		} else {
			for _, sp := range d.(*ast.GenDecl).Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, id := range vs.Names {
						decls = append(decls, id.Name)
					}
				}
			}
		}
		fill := map[ast.Node]bool{}
		// set records a setter of v at at; rhs is the value assigned, or
		// nil for one that is not a single expression.
		set := func(v *types.Var, at ast.Node, rhs ast.Expr) {
			if m.values[v] == nil {
				return
			}
			if test {
				for _, name := range decls {
					m.testSetters[v][pkg.Name()+"."+name] = true
				}
			} else {
				m.values[v].add(info, rhs)
			}
			if (inDefault || fill[at]) && v.Pkg() == pkg {
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
						if v := fieldOf(info, as.Lhs[0]); m.values[v] != nil && v.Pkg() == pkg && !test {
							m.values[v].filled = true
						}
					}
				}
			case *ast.CompositeLit:
				var st *types.Struct
				if tv, ok := info.Types[n]; ok {
					st, _ = tv.Type.Underlying().(*types.Struct)
				}
				keyed := map[*types.Var]bool{}
				for i, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							v, _ := info.Uses[id].(*types.Var)
							keyed[v] = true
							set(v, id, kv.Value)
						}
					} else if st != nil {
						keyed[st.Field(i)] = true
						set(st.Field(i), el, el)
					}
				}
				for i := 0; st != nil && !test && i < st.NumFields(); i++ {
					if v := st.Field(i); m.values[v] != nil && !keyed[v] {
						m.values[v].omitted = true
					}
				}
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					break
				}
				for i, l := range n.Lhs {
					var rhs ast.Expr
					if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					}
					set(fieldOf(info, l), l, rhs)
				}
			case *ast.IncDecStmt:
				set(fieldOf(info, n.X), n.X, nil)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					set(fieldOf(info, n.X), n.X, nil)
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

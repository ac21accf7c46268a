package virtnet

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// sigSeam is a signature finding that stays. It is one of two kinds, and the
// census checks which:
//   - vnperf: benchmarks/vnperf calls the function, so only a change to the
//     benchmark may change its signature;
//   - otherwise: a result only tests read, for state no other API shows.
type sigSeam struct {
	vnperf bool
	why    string
}

// signatureSeams lists every parameter or result the signature census flags
// that stays: f(p) names a parameter, f()[i] the i-th result. Keep it at 6
// entries or fewer.
var signatureSeams = map[string]sigSeam{
	"serve.NewUniformKeys(n)": {vnperf: true, why: "benchmarks/vnperf's serve-kv calls it with its own kvKeys, which today equals the serve row's 100,000"},
}

const maxSignatureSeams = 6

// TestEverySignatureIsUsed holds every function and method with a body in a
// non-test file under internal/ or cmd/ to three rules:
//  1. every named parameter is read in its body;
//  2. no parameter is passed the same constant by every call in the module
//     (tests, examples and benchmarks included): a value with one setting
//     is a constant, not an option. It covers package-level functions and
//     the methods of unexported types or with unexported names, and skips a
//     variadic last parameter and a function nothing calls;
//  3. every result but an error is read by a non-test call. A call used as
//     a statement, or in go or defer, reads none of its results, and an
//     assignment to _ does not read the one it drops; a result only
//     _test.go files read is test-only.
//
// A function referred to other than as a callee (a handler, a callback, a
// method value) has its signature fixed from outside and is exempt, as is a
// method whose type satisfies fmt.Stringer, error or an interface the module
// declares with that method, and any testSeams name. Anything else the rules
// flag stays only as a signatureSeams entry; a stale entry fails.
//
// Run with -v for the exported methods that every call passes one constant:
// operands of an API, which the rule leaves alone but a reviewer may not.
func TestEverySignatureIsUsed(t *testing.T) {
	m := loadModule(t)
	ifaces := m.interfaces(t)
	var findings, stale []string
	flagged := map[string]string{} // finding key -> kind
	for _, fn := range m.funcs {
		name, recv := funcName(fn), recvType(fn)
		if m.valueRef[fn] || recv != nil && satisfies(ifaces, recv, fn.Name()) {
			continue
		}
		if _, ok := testSeams[name]; ok {
			continue
		}
		flag := func(key, kind string) {
			flagged[key] = kind
			if _, ok := signatureSeams[key]; !ok {
				findings = append(findings, key+": "+kind)
			}
		}
		sig := fn.Type().(*types.Signature)
		calls := m.calls[fn]
		api := recv != nil && recv.Obj().Exported() && fn.Exported()
		for i := 0; i < sig.Params().Len(); i++ {
			p := sig.Params().At(i)
			key := fmt.Sprintf("%s(%s)", name, p.Name())
			if p.Name() == "" || p.Name() == "_" {
				continue
			}
			if _, ok := m.used[p]; !ok {
				flag(key, "never read")
				continue
			}
			if calls == nil || sig.Variadic() && i == sig.Params().Len()-1 || calls.args[i] == nil {
				continue
			}
			switch {
			case !api:
				flag(key, fmt.Sprintf("every one of %d calls passes %s", calls.n, calls.args[i]))
			case testing.Verbose():
				t.Logf("one-value operand: %s (every one of %d calls passes %s)", key, calls.n, calls.args[i])
			}
		}
		if calls == nil {
			continue
		}
		for i := 0; i < sig.Results().Len(); i++ {
			if types.Identical(sig.Results().At(i).Type(), types.Universe.Lookup("error").Type()) {
				continue
			}
			key := fmt.Sprintf("%s()[%d]", name, i)
			switch calls.read[i] {
			case readNowhere:
				flag(key, "no call reads it")
			case readInTests:
				flag(key, testOnlyResult)
			}
		}
	}
	for key, s := range signatureSeams {
		kind, ok := flagged[key]
		fn, _, _ := strings.Cut(key, "(")
		switch {
		case !ok:
			stale = append(stale, key+": nothing flags it")
		case s.vnperf && !m.benchCalls[fn]:
			stale = append(stale, key+": benchmarks/ does not call "+fn)
		case !s.vnperf && kind != testOnlyResult:
			stale = append(stale, key+": not a test-only result")
		}
	}
	if len(signatureSeams) > maxSignatureSeams {
		stale = append(stale, fmt.Sprintf("signatureSeams has %d entries; the cap is %d", len(signatureSeams), maxSignatureSeams))
	}
	sort.Strings(findings)
	sort.Strings(stale)
	if len(findings) > 0 {
		t.Errorf("%d parameters and results carry nothing; delete each with what only feeds it, or list it in signatureSeams:\n\t%s",
			len(findings), strings.Join(findings, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("%d signatureSeams entries are stale; delete each:\n\t%s", len(stale), strings.Join(stale, "\n\t"))
	}
}

// How far the calls of a function read one of its results.
const (
	readNowhere = iota
	readInTests
	readOutsideTests
)

// testOnlyResult is the finding a result only tests read.
const testOnlyResult = "only tests read it"

// callSites summarises every direct call of one function.
type callSites struct {
	n int
	// args holds, per parameter, the constant every call passes, or nil
	// if one passes something else.
	args []constant.Value
	// read holds, per result, the furthest any call reads it:
	// readNowhere, readInTests or readOutsideTests.
	read []int
}

// interfaces is error, fmt.Stringer and every interface the module declares,
// in the order satisfies expects.
func (m *moduleCensus) interfaces(t *testing.T) []*types.Interface {
	t.Helper()
	fmtPkg, err := m.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	errorIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return append([]*types.Interface{errorIface, fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface)}, m.ifaces...)
}

// declareFuncs records the functions and methods with a body in f.
func (m *moduleCensus) declareFuncs(f *ast.File, info *types.Info) {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			m.funcs = append(m.funcs, info.Defs[fd.Name].(*types.Func))
		}
	}
}

// collectCalls records, for every function the package's files call
// directly, the constants its calls pass and which results they read, and
// marks every function the files refer to other than as a callee.
func (m *moduleCensus) collectCalls(info *types.Info, files []*ast.File) {
	callees := map[*ast.Ident]bool{}
	for _, f := range files {
		file := m.fset.File(f.Pos()).Name()
		// reads holds which results a call reads, for the calls that do
		// not read them all.
		reads := map[*ast.CallExpr][]bool{}
		dropped := func(lhs []ast.Expr, rhs []ast.Expr) {
			if len(rhs) == 1 && len(lhs) > 1 {
				if c, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
					r := make([]bool, len(lhs))
					for i, l := range lhs {
						r[i] = !isBlank(l)
					}
					reads[c] = r
				}
				return
			}
			for i, r := range rhs {
				if c, ok := ast.Unparen(r).(*ast.CallExpr); ok && i < len(lhs) && isBlank(lhs[i]) {
					reads[c] = []bool{false}
				}
			}
		}
		// The walk reaches a statement before the call in it, so reads
		// knows a call's context by the time the call is recorded.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if c, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					reads[c] = nil
				}
			case *ast.GoStmt:
				reads[n.Call] = nil
			case *ast.DeferStmt:
				reads[n.Call] = nil
			case *ast.AssignStmt:
				dropped(n.Lhs, n.Rhs)
			case *ast.ValueSpec:
				lhs := make([]ast.Expr, len(n.Names))
				for i, id := range n.Names {
					lhs[i] = id
				}
				dropped(lhs, n.Values)
			case *ast.CallExpr:
				id := calleeIdent(info, n)
				if fn, ok := info.Uses[id].(*types.Func); ok {
					callees[id] = true
					m.recordCall(info, n, fn.Origin(), file, reads)
				}
			}
			return true
		})
	}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok && !callees[id] {
			m.valueRef[fn.Origin()] = true
		}
	}
}

// recordCall folds c, a direct call of fn in file, into fn's callSites: the
// constants it passes and the results it reads, which are all of them unless
// reads lists the call.
func (m *moduleCensus) recordCall(info *types.Info, c *ast.CallExpr, fn *types.Func, file string, reads map[*ast.CallExpr][]bool) {
	if strings.HasPrefix(file, "benchmarks/") {
		m.benchCalls[funcName(fn)] = true
	}
	sig := fn.Type().(*types.Signature)
	args := make([]constant.Value, sig.Params().Len())
	if len(c.Args) == len(args) && !c.Ellipsis.IsValid() {
		for i, a := range c.Args {
			args[i] = info.Types[a].Value
		}
	}
	cs := m.calls[fn]
	if cs == nil {
		cs = &callSites{args: args, read: make([]int, sig.Results().Len())}
		m.calls[fn] = cs
	}
	cs.n++
	for i, v := range args {
		if cs.args[i] != nil && (v == nil || !sameConst(cs.args[i], v)) {
			cs.args[i] = nil
		}
	}
	level := readOutsideTests
	if strings.HasSuffix(file, "_test.go") {
		level = readInTests
	}
	r, partial := reads[c]
	for i := range cs.read {
		if (!partial || i < len(r) && r[i]) && cs.read[i] < level {
			cs.read[i] = level
		}
	}
}

// calleeIdent is the identifier naming the function or method c calls
// directly (f, pkg.F, x.M, f[T]), or nil; a method expression T.M is not
// a direct call.
func calleeIdent(info *types.Info, c *ast.CallExpr) *ast.Ident {
	fun := ast.Unparen(c.Fun)
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	switch x := fun.(type) {
	case *ast.Ident:
		return x
	case *ast.SelectorExpr:
		if s := info.Selections[x]; s != nil && s.Kind() != types.MethodVal {
			return nil
		}
		return x.Sel
	}
	return nil
}

func funcName(fn *types.Func) string {
	if recv := recvType(fn); recv != nil {
		return fn.Pkg().Name() + "." + recv.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

// sameConst reports whether two constants are equal; numbers compare by
// value whatever their kind.
func sameConst(a, b constant.Value) bool {
	numeric := func(v constant.Value) bool { return v.Kind() >= constant.Int }
	if a.Kind() != b.Kind() && !(numeric(a) && numeric(b)) {
		return false
	}
	return constant.Compare(a, token.EQL, b)
}

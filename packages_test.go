package virtnet

import (
	"go/build"
	"sort"
	"strings"
	"testing"
)

// TestEveryPackageIsReached fails on any package under internal/ that no
// program runs: one that no non-test file under cmd/ or benchmarks/ imports,
// directly or through the non-test files of other packages. Examples do not
// count, because an example demonstrates an API and measures nothing; a
// package only examples and tests import is kept by nothing the repository
// measures.
func TestEveryPackageIsReached(t *testing.T) {
	dirs := moduleDirs(t)
	imports := map[string][]string{}   // package -> module packages it imports
	importers := map[string][]string{} // package -> module packages importing it
	for path, dir := range dirs {
		bp, err := build.ImportDir(dir, 0)
		if err != nil && !isNoGo(err) {
			t.Fatal(err)
		}
		if len(bp.GoFiles) == 0 {
			continue // no package, or tests only
		}
		imports[path] = []string{}
		for _, imp := range bp.Imports {
			if _, ok := dirs[imp]; ok {
				imports[path] = append(imports[path], imp)
				importers[imp] = append(importers[imp], path)
			}
		}
	}
	reached := map[string]bool{}
	var walk func(path string)
	walk = func(path string) {
		if !reached[path] {
			reached[path] = true
			for _, imp := range imports[path] {
				walk(imp)
			}
		}
	}
	for path := range imports {
		if strings.HasPrefix(path, "virtnet/cmd/") || strings.HasPrefix(path, "virtnet/benchmarks/") {
			walk(path)
		}
	}
	var unreached []string
	for path := range imports {
		if strings.HasPrefix(path, "virtnet/internal/") && !reached[path] {
			by := importers[path]
			sort.Strings(by)
			unreached = append(unreached, path+" (non-test importers: ["+strings.Join(by, " ")+"])")
		}
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Errorf("%d packages under internal/ are reached by no program under cmd/ or benchmarks/; delete each, or give it a run there that measures it:\n\t%s",
			len(unreached), strings.Join(unreached, "\n\t"))
	}
}

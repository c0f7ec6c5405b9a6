package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// obsPkgPath is the observability package whose bundle types carry the
// zero-cost-when-off nil-sink contract.
const obsPkgPath = "repro/internal/obs"

// ObsNil enforces the nil-sink contract: a component holds a
// possibly-nil pointer to an obs metric bundle (*obs.XxxMetrics), and
// every probe site must be dominated by a nil check on that pointer. An unguarded dereference compiles fine, passes
// every metrics-on test, and then panics the first time a user runs
// with observability disabled — the exact regression this analyzer
// pins down at build time.
var ObsNil = &Analyzer{
	Name: "obsnil",
	Doc:  "require a dominating nil check before dereferencing obs metric bundles",
	Run:  runObsNil,
}

// isObsBundlePtr reports whether t is a pointer to an obs metric bundle
// (name ends in "Metrics"). *obs.Set, *obs.XTracer and the leaf
// Counter/Gauge/Hist types are excluded — Set's and XTracer's methods
// are internally nil-safe, and the leaves are only reachable through an
// already-guarded bundle.
func isObsBundlePtr(t types.Type) (string, bool) {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return "", false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != obsPkgPath {
		return "", false
	}
	name := obj.Name()
	if strings.HasSuffix(name, "Metrics") {
		return name, true
	}
	return "", false
}

func runObsNil(pass *Pass) error {
	if pass.Pkg.Path() == obsPkgPath {
		// The bundles' own methods run behind the caller-side contract
		// (components invoke them only through guarded pointers or
		// non-nil interfaces).
		return nil
	}
	pm := newParentMap(pass.Files)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			baseType := pass.TypesInfo.TypeOf(sel.X)
			if baseType == nil {
				return true
			}
			name, ok := isObsBundlePtr(baseType)
			if !ok {
				return true
			}
			key := exprKey(sel.X)
			if key == "" {
				pass.Reportf(sel.Pos(), "dereference of *obs.%s obtained from an expression that cannot be nil-checked; bind it to a variable and guard it", name)
				return true
			}
			if !nilGuarded(pm, sel, key) {
				pass.Reportf(sel.Pos(), "%s (*obs.%s) dereferenced without a dominating nil check; the nil-sink contract makes this panic when observability is off", key, name)
			}
			return true
		})
	}
	return nil
}

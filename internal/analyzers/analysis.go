// Package analyzers is the repo's invariant suite: small static
// analyzers that mechanically enforce contracts the test suite cannot
// see — deterministic simulation time (detclock), map-iteration-order
// hygiene (detmaprange), the observability nil-sink contract (obsnil),
// the no-I/O-under-lock discipline of the concurrent pfsnet server
// (lockio), pooled-buffer ownership (bufown), atomic/plain access
// mixing (atomicmix), the interprocedural lock-acquisition order
// (lockorder), and goroutine shutdown paths (gospawn).
//
// The package deliberately mirrors the shapes of
// golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic) so the
// suite can migrate to the upstream framework wholesale if that
// dependency ever becomes available; it is built on the standard
// library alone (go/ast, go/types, and the source importer) so the
// repo stays dependency-free.
//
// Suppressions: a finding can be silenced with a directive comment on
// the same line or the line directly above it:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory — a directive without one is itself reported
// — so every suppression in the tree documents why the invariant is
// intentionally waived at that site. A directive that suppresses
// nothing (for an analyzer in the run set) is reported as stale, so
// waivers are removed when the code they excused goes away.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:allow
	// directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the check over one package, reporting findings via
	// pass.Report.
	Run func(pass *Pass) error
}

// A Pass presents one type-checked package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	pos      token.Pos
	file     string
	line     int
	analyzer string
	reason   string
	used     bool
}

// directivePrefix introduces a suppression comment.
const directivePrefix = "lint:allow"

// collectDirectives parses every //lint:allow directive in f. Malformed
// directives (missing analyzer name or reason) are reported immediately
// so suppressions cannot silently rot into undocumented waivers.
func collectDirectives(fset *token.FileSet, f *ast.File, report func(Diagnostic)) []allowDirective {
	var ds []allowDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, directivePrefix) {
				continue
			}
			fields := strings.Fields(strings.TrimPrefix(text, directivePrefix))
			if len(fields) < 2 {
				report(Diagnostic{
					Analyzer: "lint",
					Pos:      c.Pos(),
					Message:  "malformed //lint:allow directive: want //lint:allow <analyzer> <reason>",
				})
				continue
			}
			pos := fset.Position(c.Pos())
			ds = append(ds, allowDirective{
				pos:      c.Pos(),
				file:     pos.Filename,
				line:     pos.Line,
				analyzer: fields[0],
				reason:   strings.Join(fields[1:], " "),
			})
		}
	}
	return ds
}

// RunAnalyzers applies every analyzer in as to every package in pkgs
// and returns the surviving (unsuppressed) diagnostics in stable
// position order. A //lint:allow directive that names an analyzer in
// the run set but suppresses nothing is itself reported as stale, so
// waivers cannot outlive the finding they were written for; directives
// naming an analyzer the suite has never heard of are reported
// unconditionally.
func RunAnalyzers(as []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	ran := map[string]bool{}
	for _, a := range as {
		ran[a.Name] = true
	}
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		// Directives are per-file but suppress findings from any
		// analyzer pass over the package.
		var directives []allowDirective
		for _, f := range pkg.Files {
			directives = append(directives, collectDirectives(pkg.Fset, f, func(d Diagnostic) {
				out = append(out, d)
			})...)
		}
		for _, a := range as {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range pass.diags {
				if !suppressed(&directives, d, pkg.Fset) {
					out = append(out, d)
				}
			}
		}
		for i := range directives {
			dir := &directives[i]
			if dir.used {
				continue
			}
			switch {
			case !known[dir.analyzer]:
				out = append(out, Diagnostic{
					Analyzer: "lint",
					Pos:      dir.pos,
					Message:  fmt.Sprintf("//lint:allow names unknown analyzer %q", dir.analyzer),
				})
			case ran[dir.analyzer]:
				out = append(out, Diagnostic{
					Analyzer: "lint",
					Pos:      dir.pos,
					Message:  fmt.Sprintf("stale //lint:allow %s directive: it suppresses nothing — remove it or restore the invariant it waived", dir.analyzer),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		return out[i].Message < out[j].Message
	})
	return out, nil
}

// suppressed reports whether d is covered by a directive on its own
// line or the line directly above, and marks the directive used.
func suppressed(directives *[]allowDirective, d Diagnostic, fset *token.FileSet) bool {
	pos := fset.Position(d.Pos)
	for i := range *directives {
		dir := &(*directives)[i]
		if dir.analyzer != d.Analyzer || dir.file != pos.Filename {
			continue
		}
		if dir.line == pos.Line || dir.line == pos.Line-1 {
			dir.used = true
			return true
		}
	}
	return false
}

// Package analysis is a stdlib-only stand-in for the
// golang.org/x/tools/go/analysis framework, carrying the pmsortvet
// analyzers (DESIGN.md §14). The container this repo grows in has no
// module proxy access, so the x/tools dependency is gated behind this
// package: Analyzer/Pass/Diagnostic mirror the upstream API shape
// closely enough that swapping to the real framework is a mechanical
// import change confined to this directory.
//
// Deviations from upstream, all deliberate:
//
//   - Pass.Prog exposes the whole type-checked program. Upstream
//     spreads cross-package state through Facts; the wirereg analyzer
//     instead scans the program for RegisterWire call sites directly,
//     which is simpler and exact for a single-module repo.
//   - Suppression is a //nolint:analyzername comment on the flagged
//     line (or alone on the line above), golangci-lint style, applied
//     by the runner rather than per-analyzer. Every suppression should
//     carry a justification after the directive.
//   - Packages are loaded from source by the loader in this package
//     (see loader.go); there is no go/packages. Test files are not
//     analyzed — the invariants guarded here protect production data
//     paths, and the dynamic detectors (chaos, torture) cover tests.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. It mirrors the upstream
// analysis.Analyzer struct minus dependency plumbing (Requires,
// ResultType, Facts), which the pmsortvet suite does not need.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //nolint:name suppression comments.
	Name string
	// Doc is the one-paragraph contract shown by pmsortvet -list.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer run over one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Prog is the whole loaded program (all module packages), for
	// whole-program invariants like wire registration coverage.
	Prog *Program

	report func(Diagnostic)
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Report records a finding.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf records a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Package is one type-checked package of the loaded program.
type Package struct {
	// PkgPath is the import path ("pmsort/internal/coll"; fixture
	// packages use their directory name, e.g. "coll").
	PkgPath string
	Dir     string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// A Program is a set of type-checked packages sharing one FileSet.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
	// Sizes is the layout oracle used during type checking (gc
	// alignment for the host architecture).
	Sizes types.Sizes

	byPath map[string]*Package
}

// Lookup returns the loaded package with the given import path.
func (prog *Program) Lookup(path string) *Package { return prog.byPath[path] }

// A Finding is a diagnostic attributed to its analyzer and resolved to
// a concrete position, after //nolint suppression.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}

// Run applies the analyzers to every package accepted by target
// (target == nil means all) and returns the surviving findings sorted
// by position. Analyzer errors are reported as findings at the
// package's first file so a broken analyzer fails the run loudly.
func (prog *Program) Run(analyzers []*Analyzer, target func(*Package) bool) []Finding {
	var out []Finding
	for _, pkg := range prog.Packages {
		if target != nil && !target(pkg) {
			continue
		}
		sup := newSuppressions(prog.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      prog.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Prog:      prog,
			}
			pass.report = func(d Diagnostic) {
				pos := prog.Fset.Position(d.Pos)
				if sup.suppressed(a.Name, pos) {
					return
				}
				out = append(out, Finding{Pos: pos, Analyzer: a.Name, Message: d.Message})
			}
			if err := a.Run(pass); err != nil {
				pos := token.Position{Filename: pkg.PkgPath}
				if len(pkg.Files) > 0 {
					pos = prog.Fset.Position(pkg.Files[0].Pos())
				}
				out = append(out, Finding{Pos: pos, Analyzer: a.Name, Message: "analyzer error: " + err.Error()})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// suppressions maps file → line → suppressed analyzer names, built
// from //nolint comments. A directive suppresses findings on its own
// line and on the line directly below it (so it works both inline and
// as a standalone comment above the flagged statement).
type suppressions struct {
	fset  *token.FileSet
	lines map[string]map[int][]string // filename → line → names ("" = all)
}

func newSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{fset: fset, lines: make(map[string]map[int][]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//nolint")
				if !ok {
					continue
				}
				var names []string
				if rest, ok := strings.CutPrefix(text, ":"); ok {
					// Cut a trailing justification ("//nolint:x // why").
					if i := strings.Index(rest, "//"); i >= 0 {
						rest = rest[:i]
					}
					if i := strings.Index(rest, " "); i >= 0 {
						rest = rest[:i]
					}
					for _, n := range strings.Split(rest, ",") {
						if n = strings.TrimSpace(n); n != "" {
							names = append(names, n)
						}
					}
				} else {
					names = []string{""} // bare //nolint: everything
				}
				pos := fset.Position(c.Pos())
				m := s.lines[pos.Filename]
				if m == nil {
					m = make(map[int][]string)
					s.lines[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], names...)
				m[pos.Line+1] = append(m[pos.Line+1], names...)
			}
		}
	}
	return s
}

func (s *suppressions) suppressed(analyzer string, pos token.Position) bool {
	m := s.lines[pos.Filename]
	if m == nil {
		return false
	}
	for _, n := range m[pos.Line] {
		if n == "" || n == analyzer {
			return true
		}
	}
	return false
}

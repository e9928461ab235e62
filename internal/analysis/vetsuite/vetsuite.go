// Package vetsuite assembles the pmsortvet multichecker — the four
// invariant analyzers (sendfreeze, wirereg, tagrange, obscost) — and
// the command-line driver behind cmd/pmsortvet.
package vetsuite

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"pmsort/internal/analysis"
	"pmsort/internal/analysis/obscost"
	"pmsort/internal/analysis/sendfreeze"
	"pmsort/internal/analysis/tagrange"
	"pmsort/internal/analysis/wirereg"
)

// Suite is the full pmsortvet analyzer set, in reporting order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		sendfreeze.Analyzer,
		wirereg.Analyzer,
		tagrange.Analyzer,
		obscost.Analyzer,
	}
}

// Main runs the multichecker with the given command line (excluding
// the program name) and returns the process exit code: 0 clean, 1
// findings, 2 usage or load error.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pmsortvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	dir := fs.String("dir", ".", "directory inside the module to analyze")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: pmsortvet [flags] [packages]\n\n"+
			"Packages are module-root-relative patterns: ./... (default), ./internal/..., ./internal/coll.\n"+
			"Suppress a finding with //nolint:<analyzer> and a justification comment.\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	suite := Suite()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, n := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(n)] = true
		}
		var sel []*analysis.Analyzer
		for _, a := range suite {
			if keep[a.Name] {
				sel = append(sel, a)
				delete(keep, a.Name)
			}
		}
		for n := range keep {
			fmt.Fprintf(stderr, "pmsortvet: unknown analyzer %q\n", n)
			return 2
		}
		suite = sel
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	prog, err := analysis.Load(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "pmsortvet: %v\n", err)
		return 2
	}
	root, _, err := analysis.FindModule(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "pmsortvet: %v\n", err)
		return 2
	}
	findings := prog.Run(suite, prog.Match(root, patterns))
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "pmsortvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

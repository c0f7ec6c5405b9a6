// ibridge-vet is the repo's invariant multichecker: it runs the custom
// static analyzers in internal/analyzers (detclock, detmaprange,
// obsnil, lockio, bufown, atomicmix, lockorder, gospawn)
// over the module and exits non-zero on findings.
//
// Usage:
//
//	ibridge-vet [-run detclock,lockio] [-json] [patterns...]
//
// Patterns default to ./... and are resolved against the enclosing
// module root. Findings can be suppressed site-by-site with a
// documented //lint:allow <analyzer> <reason> comment; a directive
// that suppresses nothing is itself reported as stale. -json emits the
// findings as a JSON array ({file, line, col, analyzer, message}) for
// tooling; the default text form (file:line:col: [analyzer] message)
// is what the CI problem matcher annotates PR diffs with.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analyzers"
)

func main() {
	run := flag.String("run", "", "comma-separated analyzer subset (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array instead of text")
	flag.Parse()

	if *list {
		for _, a := range analyzers.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	as, err := analyzers.ByName(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibridge-vet:", err)
		os.Exit(2)
	}
	vet := analyzers.Vet
	if *asJSON {
		vet = analyzers.VetJSON
	}
	n, err := vet(".", flag.Args(), as, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibridge-vet:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "ibridge-vet: %d finding(s)\n", n)
		os.Exit(1)
	}
}

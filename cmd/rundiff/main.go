// Command rundiff inspects a longitudinal run store and diffs runs
// semantically. A diff has one section per category — verdict
// migrations, month-metric deltas, policy/blocker flips, decision-mix
// shifts, tenant quota shifts and experiment changes, then the advisory
// benchmark and obs-metric drift — and every section is a table of the
// same rows: key, field, a, b (see runstore.Delta).
//
// Usage:
//
//	rundiff -store .runs list
//	rundiff -store .runs show latest
//	rundiff -store .runs diff 20250807T1 latest
//	rundiff -store .runs diff latest path/to/golden-run -format markdown
//	rundiff diff runA-dir runB-dir -fail-on migrations
//	rundiff -store .runs gc -keep 20
//
// Run references are resolved against the store: "latest", an exact run
// id, or a unique id prefix. A reference that names a directory on disk
// (e.g. a checked-in golden run) is loaded directly, so store runs and
// standalone run directories diff interchangeably.
//
// diff exits 0 whether or not the runs differ; -fail-on turns selected
// semantic categories into a gate that exits 1 — CI uses
// "-fail-on migrations" to catch unexpected verdict-class changes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/runstore"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, `rundiff: usage:
  rundiff -store DIR list
  rundiff -store DIR show REF
  rundiff [-store DIR] diff REF_A REF_B [-format text|markdown|json] [-o FILE] [-fail-on CATS]
  rundiff -store DIR gc -keep N

A REF is "latest", a run id, a unique id prefix, or a run directory path.
-fail-on CATS: comma-separated from migrations,months,flips,mix,quotas,experiments,any.`)
	return 2
}

func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("rundiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	storeDir := fs.String("store", "", "run-store directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		return usage(stderr)
	}
	cmd, rest := fs.Arg(0), fs.Args()[1:]

	openStore := func() (*runstore.Store, bool) {
		if *storeDir == "" {
			fmt.Fprintf(stderr, "rundiff: %s needs -store DIR\n", cmd)
			return nil, false
		}
		st, err := runstore.Open(*storeDir)
		if err != nil {
			fmt.Fprintf(stderr, "rundiff: %v\n", err)
			return nil, false
		}
		return st, true
	}

	switch cmd {
	case "list":
		st, ok := openStore()
		if !ok {
			return 2
		}
		runs, err := st.Runs()
		if err != nil {
			fmt.Fprintf(stderr, "rundiff: %v\n", err)
			return 1
		}
		if len(runs) == 0 {
			fmt.Fprintf(stdout, "(store %s has no runs)\n", st.Dir())
			return 0
		}
		runstore.RenderList(stdout, runs)
		return 0

	case "show":
		if len(rest) != 1 {
			return usage(stderr)
		}
		r, err := loadRef(*storeDir, rest[0])
		if err != nil {
			fmt.Fprintf(stderr, "rundiff: %v\n", err)
			return 1
		}
		runstore.RenderRun(stdout, r)
		return 0

	case "diff":
		return runDiff(stdout, stderr, *storeDir, rest)

	case "gc":
		st, ok := openStore()
		if !ok {
			return 2
		}
		gcFlags := flag.NewFlagSet("rundiff gc", flag.ContinueOnError)
		gcFlags.SetOutput(stderr)
		keep := gcFlags.Int("keep", 20, "newest runs to keep")
		if err := gcFlags.Parse(rest); err != nil {
			return 2
		}
		removed, err := st.GC(*keep)
		if err != nil {
			fmt.Fprintf(stderr, "rundiff: %v\n", err)
			return 1
		}
		for _, id := range removed {
			fmt.Fprintf(stdout, "removed %s\n", id)
		}
		fmt.Fprintf(stdout, "(%d removed, %d kept)\n", len(removed), *keep)
		return 0

	default:
		fmt.Fprintf(stderr, "rundiff: unknown command %q\n", cmd)
		return usage(stderr)
	}
}

// runDiff handles the diff subcommand: resolve both refs, diff, render,
// and apply the -fail-on gate.
func runDiff(stdout, stderr io.Writer, storeDir string, args []string) int {
	fs := flag.NewFlagSet("rundiff diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", runstore.FormatText, "render format: text, markdown, or json")
	outPath := fs.String("o", "", "write the rendered diff to this file instead of stdout")
	failOn := fs.String("fail-on", "", "comma-separated semantic categories that exit 1 when non-empty: migrations,months,flips,mix,quotas,experiments,any")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 2 {
		return usage(stderr)
	}
	refA, refB := fs.Arg(0), fs.Arg(1)
	// Accept flags after the two refs too (flag.Parse stops at the first
	// positional argument): re-parse whatever followed them.
	if fs.NArg() > 2 {
		if err := fs.Parse(fs.Args()[2:]); err != nil {
			return 2
		}
		if fs.NArg() != 0 {
			return usage(stderr)
		}
	}

	a, err := loadRef(storeDir, refA)
	if err != nil {
		fmt.Fprintf(stderr, "rundiff: %v\n", err)
		return 1
	}
	b, err := loadRef(storeDir, refB)
	if err != nil {
		fmt.Fprintf(stderr, "rundiff: %v\n", err)
		return 1
	}
	d := runstore.DiffRuns(a, b)

	w := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(stderr, "rundiff: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if err := d.Render(w, *format); err != nil {
		fmt.Fprintf(stderr, "rundiff: %v\n", err)
		return 1
	}

	tripped, err := gate(d, *failOn)
	if err != nil {
		fmt.Fprintf(stderr, "rundiff: %v\n", err)
		return 2
	}
	if len(tripped) > 0 {
		fmt.Fprintf(stderr, "rundiff: gate failed: %s\n", strings.Join(tripped, ", "))
		return 1
	}
	return 0
}

// gate evaluates -fail-on categories against the diff, returning the
// non-empty ones.
func gate(d *runstore.Diff, failOn string) ([]string, error) {
	var tripped []string
	for _, cat := range strings.Split(failOn, ",") {
		cat = strings.TrimSpace(cat)
		switch {
		case cat == "":
		case cat == "any":
			if !d.Empty() {
				tripped = append(tripped, "semantic differences present")
			}
		default:
			i := slices.IndexFunc(d.Sections, func(s runstore.Section) bool { return s.Name == cat && !s.Advisory })
			if i < 0 {
				return nil, fmt.Errorf("unknown -fail-on category %q", cat)
			}
			if s := d.Sections[i]; s.Total > 0 {
				tripped = append(tripped, fmt.Sprintf("%d %s", s.Total, s.Noun))
			}
		}
	}
	return tripped, nil
}

// loadRef loads a run reference: a directory path loads directly, else
// the ref resolves against the store.
func loadRef(storeDir, ref string) (*runstore.Run, error) {
	if fi, err := os.Stat(ref); err == nil && fi.IsDir() {
		return runstore.LoadRunDir(ref)
	}
	if storeDir == "" {
		return nil, fmt.Errorf("ref %q is not a run directory and no -store is set", ref)
	}
	st, err := runstore.Open(storeDir)
	if err != nil {
		return nil, err
	}
	m, err := st.Resolve(ref)
	if err != nil {
		return nil, err
	}
	return st.LoadRun(m.ID)
}

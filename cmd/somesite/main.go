// Command somesite runs the paper-reproduction experiments: every table
// and figure from "Somesite I Used To Crawl" (IMC '25), regenerated from
// the simulation substrates in this repository.
//
// Experiments are scheduled by the core engine on a bounded worker pool;
// output is byte-identical at any parallelism because results stream to
// the sink in registration order and all shared substrates (corpus,
// longitudinal analysis, surveys) are built once in a shared cache.
//
// Usage:
//
//	somesite -list
//	somesite -only figure2,table1
//	somesite -quick -parallel 8
//	somesite -only figure7 -seed 7 -scale 0.5 -format json
//	somesite -timeout 10m -format markdown
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/runstore"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdout, stderr io.Writer, args []string) int {
	// Named like the default flag set, so -h prints "Usage of <argv0>:".
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list available experiments and exit")
		only     = fs.String("only", "", "comma-separated experiment ids (empty = all)")
		quick    = fs.Bool("quick", false, "run at reduced scale (fast, CI-friendly)")
		seed     = fs.Int64("seed", 0, "override the random seed (0 = paper default)")
		scale    = fs.Float64("scale", 0, "override the corpus scale (0 = config default)")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "experiments to run concurrently (1 = sequential)")
		format   = fs.String("format", "text", "output format: text, markdown, or json")
		timeout  = fs.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
		workers  = fs.Int("workers", 0, "substrate/probe pool size (0 = config default)")
		storeDir = fs.String("store", "", "persist the run to this run-store directory (see cmd/rundiff)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *list {
		for _, e := range core.Experiments() {
			fmt.Fprintf(stdout, "%-20s %s\n", e.ID, e.Title)
		}
		return 0
	}

	cfg := core.DefaultConfig()
	if *quick {
		cfg = core.QuickConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *scale != 0 {
		cfg.Scale = *scale
	}
	if *workers != 0 {
		cfg.Workers = *workers
	}

	sink, err := core.NewSink(*format, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "somesite: %v\n", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var ids []string
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}

	// Open the store before the run, so a bad -store fails before any
	// work; the run is saved only once it has finished.
	var st *runstore.Store
	var meta runstore.Meta
	if *storeDir != "" {
		if st, err = runstore.Open(*storeDir); err != nil {
			fmt.Fprintf(stderr, "somesite: %v\n", err)
			return 2
		}
		cfgKey, err := json.Marshal(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "somesite: %v\n", err)
			return 2
		}
		meta = runstore.NewMeta(runstore.KindExperiments, "somesite", cfg.Seed,
			string(cfgKey)+"|only="+strings.Join(ids, ","))
	}

	start := time.Now()
	results, err := core.RunAll(ctx, cfg, core.Options{
		Parallelism: *parallel,
		IDs:         ids,
		Sink:        sink,
	})
	if err != nil {
		fmt.Fprintf(stderr, "somesite: %v\n", err)
		if results == nil {
			return 2 // nothing ran (unknown id, bad flags)
		}
		return 1
	}
	if st != nil {
		id, err := st.SaveExperiments(meta, results)
		if err != nil {
			fmt.Fprintf(stderr, "somesite: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "somesite: stored run %s in %s\n", id, *storeDir)
	}
	if *format == "text" {
		fmt.Fprintf(stdout, "(%d experiments completed in %v, parallelism %d)\n",
			len(results), time.Since(start).Round(time.Millisecond), *parallel)
	}
	return 0
}

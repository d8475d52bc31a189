// scale-bench regenerates the tables and figures of the SCALE paper's
// evaluation (§VII) from the accelerator models.
//
// Usage:
//
//	scale-bench                 # run every experiment
//	scale-bench -exp fig10      # run one experiment
//	scale-bench -list           # list experiment ids
//	scale-bench -macs 2048      # override the MAC budget
//	scale-bench -parallel 8     # worker budget for the sweep engine
//	scale-bench -speedup        # measure serial vs parallel wall clock
//	scale-bench -keep-going     # report per-experiment failures, keep sweeping
//
// Exit codes: 0 success, 1 usage, 2 bad input, 3 runtime failure (see
// internal/cli). SIGINT/SIGTERM cancel the sweep at experiment/cell
// boundaries.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"scale/internal/bench"
	"scale/internal/cli"
	"scale/internal/graph"
)

func main() { cli.Main("scale-bench", run) }

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("scale-bench", flag.ContinueOnError)
	fs.StringVar(&flags.exp, "exp", "", "experiment id to run (default: all)")
	fs.BoolVar(&flags.list, "list", false, "list experiment ids and exit")
	fs.IntVar(&flags.macs, "macs", 1024, "equalized MAC budget")
	fs.StringVar(&flags.only, "datasets", "", "comma-separated dataset subset (e.g. cora,pubmed)")
	fs.StringVar(&flags.format, "format", "text", "output format: text, csv, json")
	fs.IntVar(&flags.parallel, "parallel", runtime.GOMAXPROCS(0), "worker goroutines for the sweep engine (1 = serial)")
	fs.BoolVar(&flags.speedup, "speedup", false, "run the full suite serially, then at -parallel, and report the wall-clock speedup")
	fs.BoolVar(&flags.keepGoing, "keep-going", false, "report failed experiments on stderr and keep sweeping instead of stopping at the first failure")
	fs.StringVar(&flags.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to `file` (go tool pprof)")
	fs.StringVar(&flags.memprofile, "memprofile", "", "write a heap profile taken after the run to `file`")
	return fs
}

// flags is kept as a struct so run stays testable and main stays a one-liner.
var flags struct {
	exp        string
	list       bool
	macs       int
	only       string
	format     string
	parallel   int
	speedup    bool
	keepGoing  bool
	cpuprofile string
	memprofile string
}

func run(ctx context.Context) error {
	fs := newFlagSet()
	if err := fs.Parse(os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return &cli.UsageError{Err: err}
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected arguments %v", fs.Args())
	}
	if _, err := (&bench.Table{}).Format(flags.format); err != nil {
		return &cli.UsageError{Err: err}
	}

	if flags.cpuprofile != "" {
		f, err := os.Create(flags.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if flags.memprofile != "" {
		defer func() {
			f, err := os.Create(flags.memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "scale-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "scale-bench:", err)
			}
		}()
	}

	if flags.list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Description)
		}
		return nil
	}

	newSuite := func() (*bench.Suite, error) {
		s := bench.NewSuite()
		s.MACs = flags.macs
		if flags.only != "" {
			s.Datasets = strings.Split(flags.only, ",")
			for _, d := range s.Datasets {
				if _, err := graph.ByName(d); err != nil {
					return nil, err
				}
			}
		}
		return s, nil
	}

	experiments := bench.Experiments()
	if flags.exp != "" {
		e, err := bench.ByID(flags.exp)
		if err != nil {
			return &cli.UsageError{Err: err}
		}
		experiments = []bench.Experiment{e}
	}

	if flags.speedup {
		// Fresh suite per run so the second run cannot serve the first run's
		// cache; this is the tool's own serial-vs-parallel benchmark.
		serial, err := timeRun(ctx, newSuite, experiments, 1)
		if err != nil {
			return err
		}
		par, err := timeRun(ctx, newSuite, experiments, flags.parallel)
		if err != nil {
			return err
		}
		fmt.Printf("experiments: %d\n", len(experiments))
		fmt.Printf("serial   (-parallel 1):  %s\n", serial.Round(time.Millisecond))
		fmt.Printf("parallel (-parallel %d): %s\n", flags.parallel, par.Round(time.Millisecond))
		fmt.Printf("speedup: %.2fx on %d CPUs\n", serial.Seconds()/par.Seconds(), runtime.NumCPU())
		return nil
	}

	s, err := newSuite()
	if err != nil {
		return err
	}
	r := bench.NewRunner(s, flags.parallel)
	start := time.Now()
	if flags.exp == "" {
		// Full runs touch every cell; warm the cache across the pool first.
		// Under -keep-going a warm failure is survivable: the failing cells
		// fail again, attributed, inside their own experiments.
		if err := r.WarmContext(ctx); err != nil && !flags.keepGoing {
			return err
		}
	}
	var firstErr error
	for _, res := range r.RunContext(ctx, experiments) {
		if res.Err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", res.Experiment.ID, res.Err)
			}
			if !flags.keepGoing {
				return firstErr
			}
			fmt.Fprintf(os.Stderr, "scale-bench: %s: %v\n", res.Experiment.ID, res.Err)
			continue
		}
		out, err := res.Table.Format(flags.format)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	fmt.Fprintf(os.Stderr, "scale-bench: %d experiment(s) in %s (%d workers)\n",
		len(experiments), time.Since(start).Round(time.Millisecond), r.Workers)
	return firstErr
}

// timeRun executes the experiments on a fresh suite with the given worker
// budget and returns the wall clock; any experiment error aborts.
func timeRun(ctx context.Context, newSuite func() (*bench.Suite, error), exps []bench.Experiment, workers int) (time.Duration, error) {
	s, err := newSuite()
	if err != nil {
		return 0, err
	}
	r := bench.NewRunner(s, workers)
	start := time.Now()
	if err := r.WarmContext(ctx); err != nil {
		return 0, err
	}
	for _, res := range r.RunContext(ctx, exps) {
		if res.Err != nil {
			return 0, fmt.Errorf("%s: %w", res.Experiment.ID, res.Err)
		}
	}
	return time.Since(start), nil
}

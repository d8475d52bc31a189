// scale-datasets inspects the Table II dataset registry: structure
// statistics of the synthetic full-size profiles, redundancy analysis of the
// materialized builds, and optional binary export of the built graphs.
//
// Usage:
//
//	scale-datasets                   # print the registry
//	scale-datasets -analyze          # add redundancy analysis (builds graphs)
//	scale-datasets -export ./graphs  # write built graphs as .scg files
//
// An .scg file is one SCG1 frame (internal/graph's Encode): magic, name,
// |V|, |E|, then the CSR row pointers and columns, little endian.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"scale/internal/cli"
	"scale/internal/graph"
	"scale/internal/redundancy"
)

func main() { cli.Main("scale-datasets", run) }

func run(_ context.Context) error {
	fs := flag.NewFlagSet("scale-datasets", flag.ContinueOnError)
	var (
		analyze = fs.Bool("analyze", false, "run redundancy analysis on the built graphs")
		export  = fs.String("export", "", "directory to export built graphs into")
		hist    = fs.String("hist", "", "print the degree histogram of one dataset")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return &cli.UsageError{Err: err}
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected arguments %v", fs.Args())
	}

	fmt.Printf("%-10s %10s %12s %8s %7s %7s  %s\n",
		"dataset", "|V|", "|E|", "avg-deg", "max", "gini", "feature dims")
	for _, d := range graph.AllDatasets() {
		p := d.Profile()
		st := graph.Stats(p)
		fmt.Printf("%-10s %10d %12d %8.1f %7d %7.3f  %v\n",
			d.Name, p.NumVertices(), p.NumEdges(), p.AvgDegree(), st.Max, st.Gini, d.FeatureDims)
	}

	if *hist != "" {
		d, err := graph.ByName(*hist)
		if err != nil {
			return err
		}
		p := d.Profile()
		fmt.Printf("\n%s degree histogram (p50=%d p90=%d p99=%d max=%d):\n%s",
			d.Name, graph.Percentile(p, 0.5), graph.Percentile(p, 0.9),
			graph.Percentile(p, 0.99), p.MaxDegree(), graph.HistogramOf(p))
	}

	if *analyze {
		fmt.Println("\nredundancy analysis (materialized builds; Nell/Reddit at scale):")
		for _, d := range graph.AllDatasets() {
			g := d.Build()
			an := redundancy.Analyze(g)
			fmt.Printf("%-10s build |V|=%d |E|=%d  %v\n",
				d.Name, g.NumVertices(), g.NumEdges(), an)
		}
	}

	if *export != "" {
		if err := os.MkdirAll(*export, 0o755); err != nil {
			return err
		}
		for _, d := range graph.AllDatasets() {
			g := d.Build()
			path := filepath.Join(*export, d.Name+".scg")
			if err := os.WriteFile(path, graph.Encode(g), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s (|V|=%d |E|=%d)\n", path, g.NumVertices(), g.NumEdges())
		}
	}
	return nil
}

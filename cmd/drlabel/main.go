// Command drlabel builds a reachability index for a graph file and
// writes it to disk.
//
// Usage:
//
//	drlabel -i graph.bin -o graph.idx                    # DRL_b, 4 workers
//	drlabel -i graph.el -method tol -o graph.idx
//	drlabel -i graph.bin -method drl -workers 8 -o graph.idx
//	drlabel -i big.bin -mmap -budget 32 -o big.idx       # size-restricted
//
// Methods: tol, drl-basic, drl, drl-batch (default), drl-shared. -budget
// caps every label list (drl-shared only, the default then); the file is
// served with its graph: drserve -idx big.idx -graph big.bin.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
	"repro/internal/durable"
	"repro/internal/label"
)

func main() {
	var (
		in      = flag.String("i", "", "input graph (text edge list or drgen binary; required)")
		out     = flag.String("o", "", "output index path (required)")
		method  = flag.String("method", "", "construction method (default drl-batch; with -budget, drl-shared)")
		budget  = flag.Int("budget", 0, "cap every label list at this many entries per vertex and direction (0 = a full index)")
		workers = flag.Int("workers", 4, "computation nodes / threads")
		b       = flag.Int("b", 2, "DRL_b initial batch size")
		k       = flag.Float64("k", 2, "DRL_b batch increment factor")
		latency = flag.Duration("latency", 0, "simulated network latency per superstep (0 = off)")
		timeout = flag.Duration("timeout", 0, "abort the build after this long (0 = none)")
		mmap    = flag.Bool("mmap", false, "memory-map the input (binary v2 files only) instead of reading it into RAM")
	)
	flag.Parse()
	if *in == "" || *out == "" {
		fatal(fmt.Errorf("both -i and -o are required"))
	}

	var g *reachlab.Graph
	var err error
	if *mmap {
		var unmap func() error
		g, unmap, err = reachlab.MapGraph(*in)
		if err == nil {
			defer unmap()
		}
	} else {
		g, err = reachlab.LoadGraph(*in)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %s: %s\n", *in, g.Stats())

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	start := time.Now()
	idx, err := reachlab.Build(ctx, g, reachlab.Options{
		Method:         reachlab.Method(*method),
		Workers:        *workers,
		BatchSize:      *b,
		BatchFactor:    *k,
		NetworkLatency: *latency,
		LabelBudget:    *budget,
	})
	if err != nil {
		fatal(err)
	}
	bs := idx.BuildStats()
	st := idx.Stats()
	fmt.Printf("built with %s in %v (compute %v, communication %v, %d supersteps, %d messages)\n",
		bs.Method, time.Since(start).Round(time.Millisecond),
		bs.Compute.Round(time.Millisecond), bs.Communication.Round(time.Millisecond),
		bs.Supersteps, bs.Messages)
	if len(bs.Phases) > 0 {
		fmt.Printf("phases: %v\n", bs.Phases)
	}
	fmt.Printf("index: %d entries, %.2f MB in memory, max label %d, avg label %.2f\n",
		st.Entries, float64(st.Resident)/(1<<20), st.MaxLabelSize, st.AvgLabelSize)
	if *budget > 0 {
		fmt.Printf("label budget %d: %d/%d vertices overflowed in/out\n", st.LabelBudget, st.OverflowedIn, st.OverflowedOut)
	}

	var written int64
	if err := durable.WriteFile(*out, func(w io.Writer) (err error) {
		written, err = idx.WriteTo(w)
		return err
	}); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%.2f MB on disk, %.2f MB in memory)\n", *out, float64(written)/(1<<20), float64(st.Resident)/(1<<20))
	f, err := os.Open(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	sec, err := label.ReadSections(f)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("file sections: header and optional parts %d B, permutation %d B, L_in %d B, L_out %d B\n", sec.Head, sec.Perm, sec.In, sec.Out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "drlabel:", err)
	os.Exit(1)
}

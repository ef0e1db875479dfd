// Command drquery answers reachability queries from a serialized
// index — no graph access needed, which is the point of the
// index-only approach (an index built with drlabel -budget is the
// exception: it needs -graph).
//
// Usage:
//
//	drquery -idx graph.idx 3 17 5 99        # pairs on the command line
//	echo "3 17" | drquery -idx graph.idx -  # pairs from stdin
//	drquery -idx graph.idx -bench 1000000   # mean random-query latency
//
// Rich verbs: -count reports reachable-set sizes for single vertices,
// and -path reconstructs a witness path per pair — paths walk real
// edges, so -path additionally needs the -graph edge list the index
// was built from:
//
//	drquery -idx graph.idx -count 3 17
//	drquery -idx graph.idx -graph graph.txt -path 3 17
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"time"

	"repro"
)

func main() {
	var (
		idxPath   = flag.String("idx", "", "index file written by drlabel (required)")
		graphPath = flag.String("graph", "", "graph file the index was built from (required by -path and by a budgeted index)")
		bench     = flag.Int("bench", 0, "run this many random queries and report the mean latency")
		seed      = flag.Int64("seed", 1, "random query seed for -bench")
		doCount   = flag.Bool("count", false, "treat each argument as one source and report its reachable-set size")
		doPath    = flag.Bool("path", false, "reconstruct a witness path per pair (needs -graph)")
	)
	flag.Parse()
	if *idxPath == "" {
		fatal(fmt.Errorf("missing -idx"))
	}
	if *doCount && *doPath {
		fatal(fmt.Errorf("-count and -path are mutually exclusive"))
	}
	var g *reachlab.Graph
	if *graphPath != "" {
		var err error
		if g, err = reachlab.LoadGraph(*graphPath); err != nil {
			fatal(err)
		}
	}
	idx, err := reachlab.OpenIndex(*idxPath, g)
	if err != nil {
		fatal(err)
	}
	if *doPath && !idx.HasGraph() {
		fatal(fmt.Errorf("-path needs the edge list: pass -graph"))
	}
	n := idx.NumVertices()
	fmt.Fprintf(os.Stderr, "index covers %d vertices\n", n)
	if n == 0 {
		fatal(fmt.Errorf("index is empty"))
	}

	if *doCount {
		if len(flag.Args()) == 0 {
			fatal(fmt.Errorf("-count needs source vertices"))
		}
		for _, a := range flag.Args() {
			s, err := strconv.Atoi(a)
			if err != nil {
				fatal(err)
			}
			if s < 0 || s >= n {
				fmt.Printf("|reach(%d)| = out of range\n", s)
				continue
			}
			fmt.Printf("|reach(%d)| = %d\n", s, idx.ReachableSetSize(reachlab.VertexID(s)))
		}
		return
	}

	if *bench > 0 {
		rng := rand.New(rand.NewSource(*seed))
		pairs := make([][2]reachlab.VertexID, *bench)
		for i := range pairs {
			pairs[i] = [2]reachlab.VertexID{
				reachlab.VertexID(rng.Intn(n)),
				reachlab.VertexID(rng.Intn(n)),
			}
		}
		reachable := 0
		start := time.Now()
		for _, p := range pairs {
			if idx.Reachable(p[0], p[1]) {
				reachable++
			}
		}
		dur := time.Since(start)
		fmt.Printf("%d queries in %v (%.2E s/query), %d reachable\n",
			*bench, dur.Round(time.Millisecond),
			dur.Seconds()/float64(*bench), reachable)
		return
	}

	args := flag.Args()
	if len(args) == 1 && args[0] == "-" {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			var s, t int
			if _, err := fmt.Sscan(sc.Text(), &s, &t); err != nil {
				fatal(fmt.Errorf("bad query line %q: %w", sc.Text(), err))
			}
			answer(idx, s, t, n, *doPath)
		}
		if err := sc.Err(); err != nil {
			fatal(err)
		}
		return
	}
	if len(args) == 0 || len(args)%2 != 0 {
		fatal(fmt.Errorf("provide s t vertex pairs (or '-' for stdin)"))
	}
	for i := 0; i < len(args); i += 2 {
		s, err := strconv.Atoi(args[i])
		if err != nil {
			fatal(err)
		}
		t, err := strconv.Atoi(args[i+1])
		if err != nil {
			fatal(err)
		}
		answer(idx, s, t, n, *doPath)
	}
}

func answer(idx *reachlab.Index, s, t, n int, withPath bool) {
	if s < 0 || s >= n || t < 0 || t >= n {
		fmt.Printf("q(%d,%d) = out of range\n", s, t)
		return
	}
	if withPath {
		path, err := idx.WitnessPath(reachlab.VertexID(s), reachlab.VertexID(t))
		if err != nil {
			fatal(err)
		}
		if path == nil {
			fmt.Printf("path(%d,%d) = unreachable\n", s, t)
			return
		}
		fmt.Printf("path(%d,%d) =", s, t)
		for _, v := range path {
			fmt.Printf(" %d", v)
		}
		fmt.Printf("  (%d hops)\n", len(path)-1)
		return
	}
	fmt.Printf("q(%d,%d) = %v\n", s, t, idx.Reachable(reachlab.VertexID(s), reachlab.VertexID(t)))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "drquery:", err)
	os.Exit(1)
}

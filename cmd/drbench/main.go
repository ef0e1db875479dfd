// Command drbench regenerates the paper's evaluation artifacts
// (Table V, Table VI, and Figures 5-9 of §VI), the design-choice
// ablations, and the extra-baseline comparison against the synthetic
// dataset suite. Its output is what results/ and EXPERIMENTS.md record;
// performance claims are measured with benchmark/run.sh instead.
//
// Usage:
//
//	drbench -exp table6 -suite medium -workers 8 -cutoff 60s
//	drbench -exp all    -suite tiny
//
// -exp takes one experiment name (see -h) or "all", which runs every
// one of them in order. Suites: tiny, medium, large, all (see
// internal/bench).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/netsim"
)

// experiment is one named artifact: compute its rows, print them.
type experiment struct {
	name string
	run  func(r *bench.Runner, ds []bench.Dataset, progress func(string)) error
}

// experiments is the single list the help text, "all", and the
// dispatch are derived from.
var experiments = []experiment{
	{"table5", of((*bench.Runner).Table5, bench.PrintTable5)},
	{"table6", of((*bench.Runner).Table6, bench.PrintTable6)},
	{"fig5", of((*bench.Runner).Fig5, bench.PrintFig5)},
	{"fig6", of((*bench.Runner).Fig6, bench.PrintFig6)},
	{"fig7", of((*bench.Runner).Fig7, bench.PrintFig7)},
	{"fig8", of((*bench.Runner).Fig8, bench.PrintFig8)},
	{"fig9", of((*bench.Runner).Fig9, bench.PrintFig9)},
	{"ablation-order", of((*bench.Runner).AblationOrder, bench.PrintAblationOrder)},
	{"ablation-condense", of((*bench.Runner).AblationCondense, bench.PrintAblationCondense)},
}

// of pairs a Runner experiment with its table printer.
func of[Row any](
	rows func(*bench.Runner, []bench.Dataset, func(string)) ([]Row, error),
	show func(io.Writer, []Row),
) func(*bench.Runner, []bench.Dataset, func(string)) error {
	return func(r *bench.Runner, ds []bench.Dataset, progress func(string)) error {
		out, err := rows(r, ds, progress)
		if err != nil {
			return err
		}
		show(os.Stdout, out)
		return nil
	}
}

func main() {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	var (
		exp     = flag.String("exp", "table6", "experiment: "+strings.Join(names, ", ")+", or all")
		suite   = flag.String("suite", "medium", "dataset suite: tiny, medium, large, all")
		workers = flag.Int("workers", 8, "simulated computation nodes P")
		cutoff  = flag.Duration("cutoff", 60*time.Second, "per-build cut-off (0 = none); timed-out builds print INF")
		queries = flag.Int("queries", 20000, "sampled queries per query-time figure")
		latency = flag.Duration("latency", 100*time.Microsecond, "simulated per-superstep barrier latency")
		quiet   = flag.Bool("q", false, "suppress progress lines")
	)
	flag.Parse()

	selected := experiments
	if *exp != "all" {
		selected = nil
		for _, e := range experiments {
			if e.name == *exp {
				selected = []experiment{e}
			}
		}
		if selected == nil {
			fatal(fmt.Errorf("unknown experiment %q (%s, or all)", *exp, strings.Join(names, ", ")))
		}
	}

	ds, err := bench.Suite(*suite)
	if err != nil {
		fatal(err)
	}
	r := bench.NewRunner()
	r.Workers = *workers
	r.Cutoff = *cutoff
	r.Queries = *queries
	r.Net = netsim.Model{BarrierLatency: *latency, BytesPerSecond: netsim.Commodity().BytesPerSecond}

	progress := func(line string) { fmt.Fprintln(os.Stderr, line) }
	if *quiet {
		progress = nil
	}

	for _, e := range selected {
		fmt.Printf("\n===== %s (suite %s, P=%d) =====\n", e.name, *suite, r.Workers)
		if err := e.run(r, ds, progress); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "drbench:", err)
	os.Exit(1)
}

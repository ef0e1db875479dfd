package bench

import (
	"fmt"
	"io"
	"log"
	"strings"
	"text/tabwriter"
	"time"
)

// Text renderers producing the paper's artifacts as aligned tables.

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// flushTab flushes a report table. The printers have no error channel
// — reports are best-effort console output — but a failing underlying
// writer must not vanish silently (errsink), so it is logged.
func flushTab(tw *tabwriter.Writer) {
	if err := tw.Flush(); err != nil {
		log.Printf("bench: flushing table: %v", err)
	}
}

func secs(d time.Duration, inf bool) string {
	if inf {
		return "INF"
	}
	return fmt.Sprintf("%.2f", d.Seconds())
}

func mb(b int64, inf bool) string {
	if inf {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(b)/(1<<20))
}

func sci(d time.Duration, missing bool) string {
	if missing {
		return "-"
	}
	return fmt.Sprintf("%.2E", d.Seconds())
}

// PrintTable5 renders the dataset inventory.
func PrintTable5(w io.Writer, rows []Table5Row) {
	tw := newTab(w)
	fmt.Fprintln(tw, "Name\tStands for\t|V|\t|E|\tType\tSCCs\tLargest SCC\tAcyclic")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%s\t%d\t%d\t%v\n",
			r.Dataset.Name, r.Dataset.Paper, r.Stats.Vertices, r.Stats.Edges,
			r.Dataset.Params.Family, r.Stats.Components, r.Stats.LargestSCC, r.Stats.Acyclic)
	}
	flushTab(tw)
}

// PrintTable6 renders the competitor comparison in the paper's three
// blocks: index time (s), index size (MB), query time (s).
func PrintTable6(w io.Writer, rows []Table6Row) {
	tw := newTab(w)
	fmt.Fprintln(tw, "== Index Time (sec) ==")
	fmt.Fprintln(tw, "Name\tBFL^C\tBFL^D\tTOL\tDRL_b\tDRL_b^M")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", r.Dataset,
			secs(r.BFLC.Total, r.BFLC.INF()),
			secs(r.BFLD.Total, r.BFLD.INF()),
			secs(r.TOL.Total, r.TOL.INF()),
			secs(r.DRLb.Total, r.DRLb.INF()),
			secs(r.DRLbM.Total, r.DRLbM.INF()))
	}
	fmt.Fprintln(tw, "\n== Index Size (MB) ==")
	fmt.Fprintln(tw, "Name\tBFL^C\tBFL^D\tTOL\tDRL_b\tDRL_b^M")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", r.Dataset,
			mb(r.BFLC.Bytes, r.BFLC.INF()),
			mb(r.BFLD.Bytes, r.BFLD.INF()),
			mb(r.TOL.Bytes, r.TOL.INF()),
			mb(r.DRLb.Bytes, r.DRLb.INF()),
			mb(r.DRLbM.Bytes, r.DRLbM.INF()))
	}
	fmt.Fprintln(tw, "\n== Query Time (sec) ==")
	fmt.Fprintln(tw, "Name\tBFL^C\tBFL^D\tTOL\tDRL_b\tDRL_b^M")
	for _, r := range rows {
		idx := sci(r.QueryIdx, r.QueryIdx == 0)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", r.Dataset,
			sci(r.QueryBFLC, r.BFLC.Index == nil),
			sci(r.QueryBFLD, r.BFLD.Index == nil),
			idx, idx, idx)
	}
	flushTab(tw)
}

// PrintFig5 renders the communication/computation split.
func PrintFig5(w io.Writer, rows []Fig5Row) {
	tw := newTab(w)
	fmt.Fprintln(tw, "Dataset\tAlgo\tComputation (s)\tCommunication (s)\tTotal (s)")
	for _, r := range rows {
		for _, e := range []BuildResult{r.DRLMinus, r.DRL, r.DRLb} {
			if e.INF() {
				fmt.Fprintf(tw, "%s\t%s\tINF\tINF\tINF\n", r.Dataset, e.Algo)
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.3f\n",
				r.Dataset, e.Algo, e.ComputeTime().Seconds(), e.TotalComm().Seconds(), e.Total.Seconds())
		}
	}
	flushTab(tw)
}

// PrintFig6 renders speedup ratios per worker count.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	tw := newTab(w)
	header := []string{"Dataset", "Algo"}
	if len(rows) > 0 {
		for _, p := range rows[0].Workers {
			header = append(header, fmt.Sprintf("p=%d", p))
		}
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, r := range rows {
		cols := []string{r.Dataset, r.Algo}
		for i := range r.Workers {
			if s := r.Speedup(i); s > 0 {
				cols = append(cols, fmt.Sprintf("%.2fx", s))
			} else {
				cols = append(cols, "INF")
			}
		}
		fmt.Fprintln(tw, strings.Join(cols, "\t"))
	}
	flushTab(tw)
}

// PrintFig7 renders index time against edge-prefix fraction.
func PrintFig7(w io.Writer, rows []Fig7Row) {
	tw := newTab(w)
	header := []string{"Dataset", "Algo"}
	if len(rows) > 0 {
		for _, f := range rows[0].Fractions {
			header = append(header, fmt.Sprintf("%.0f%%", f*100))
		}
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, r := range rows {
		cols := []string{r.Dataset, r.Algo}
		for _, t := range r.Times {
			cols = append(cols, secs(t.Total, t.INF()))
		}
		fmt.Fprintln(tw, strings.Join(cols, "\t"))
	}
	flushTab(tw)
}

// PrintFig8 renders index time against the initial batch size b.
func PrintFig8(w io.Writer, rows []Fig8Row) {
	tw := newTab(w)
	header := []string{"Dataset"}
	if len(rows) > 0 {
		for _, b := range rows[0].Sizes {
			header = append(header, fmt.Sprintf("b=%d", b))
		}
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, r := range rows {
		cols := []string{r.Dataset}
		for _, t := range r.Times {
			cols = append(cols, secs(t.Total, t.INF()))
		}
		fmt.Fprintln(tw, strings.Join(cols, "\t"))
	}
	flushTab(tw)
}

// PrintFig9 renders index time against the increment factor k.
func PrintFig9(w io.Writer, rows []Fig9Row) {
	tw := newTab(w)
	header := []string{"Dataset"}
	if len(rows) > 0 {
		for _, k := range rows[0].Factors {
			header = append(header, fmt.Sprintf("k=%.1f", k))
		}
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, r := range rows {
		cols := []string{r.Dataset}
		for _, t := range r.Times {
			cols = append(cols, secs(t.Total, t.INF()))
		}
		fmt.Fprintln(tw, strings.Join(cols, "\t"))
	}
	flushTab(tw)
}

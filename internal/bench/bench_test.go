package bench

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/drl"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/netsim"
	"repro/internal/order"
	"repro/internal/pregel"
)

// tinyRunner is a fast configuration for the test suite.
func tinyRunner() *Runner {
	return &Runner{
		Workers: 3,
		Cutoff:  30 * time.Second,
		Net:     netsim.Model{BarrierLatency: 10 * time.Microsecond, BytesPerSecond: 1 << 30},
		Queries: 500,
	}
}

func tinySuite(t *testing.T) []Dataset {
	t.Helper()
	ds, err := Suite("tiny")
	if err != nil {
		t.Fatal(err)
	}
	return ds[:2] // WEBW + DBPE keep the test quick
}

func TestSuites(t *testing.T) {
	for name, want := range map[string]int{"tiny": 6, "medium": 6, "large": 12, "all": 18} {
		ds, err := Suite(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) != want {
			t.Errorf("suite %s has %d datasets, want %d", name, len(ds), want)
		}
	}
	if _, err := Suite("nope"); err == nil {
		t.Error("unknown suite should fail")
	}
	if _, err := Lookup("WEBW"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("NOPE"); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestTable5(t *testing.T) {
	r := tinyRunner()
	rows, err := r.Table5(tinySuite(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Stats.Vertices == 0 {
		t.Fatalf("bad rows: %+v", rows)
	}
	var buf bytes.Buffer
	PrintTable5(&buf, rows)
	if !strings.Contains(buf.String(), "WEBW") {
		t.Error("table should mention WEBW")
	}
}

func TestTable6(t *testing.T) {
	r := tinyRunner()
	var progress []string
	rows, err := r.Table6(tinySuite(t), func(s string) { progress = append(progress, s) })
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.TOL.INF() || row.DRLb.INF() {
			t.Fatalf("%s: tiny build should not time out", row.Dataset)
		}
		if row.TOL.Bytes != row.DRLb.Bytes {
			t.Errorf("%s: TOL and DRL_b must have identical index size", row.Dataset)
		}
		if row.QueryIdx <= 0 || row.QueryBFLD <= 0 {
			t.Errorf("%s: missing query times", row.Dataset)
		}
		if row.QueryBFLD < row.QueryIdx {
			t.Errorf("%s: BFL^D queries should be slower than index-only", row.Dataset)
		}
		if row.BFLD.Total < row.DRLb.Total {
			t.Errorf("%s: distributed DFS should cost more than DRL_b (%v vs %v)",
				row.Dataset, row.BFLD.Total, row.DRLb.Total)
		}
	}
	if len(progress) == 0 {
		t.Error("no progress lines")
	}
	var buf bytes.Buffer
	PrintTable6(&buf, rows)
	for _, section := range []string{"Index Time", "Index Size", "Query Time"} {
		if !strings.Contains(buf.String(), section) {
			t.Errorf("missing section %s", section)
		}
	}
}

// TestWireVolumeGolden pins the BSP volume of the two distributed
// labelers on the whole tiny suite at NewRunner's P = 8. All three
// numbers are pure functions of the graph, the worker count and the
// wire codec, so a combiner or codec regression moves them; a change
// that earns a wire-volume gain edits these rows.
func TestWireVolumeGolden(t *testing.T) {
	type volume struct {
		supersteps            int
		messages, bytesRemote int64
	}
	want := map[string][2]volume{ // dataset -> {DRL, DRL_b}
		"WEBW": {{21, 21277, 240002}, {64, 7270, 120293}},
		"DBPE": {{18, 19380, 322302}, {126, 18584, 449527}},
		"CITE": {{11, 14536, 240321}, {82, 13654, 344013}},
		"CITP": {{14, 36623, 483181}, {100, 34132, 614460}},
		"TW":   {{12, 11111, 168370}, {71, 7521, 189392}},
		"GO":   {{12, 24564, 322518}, {67, 24211, 406902}},
	}
	ds, err := Suite("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != len(want) {
		t.Fatalf("tiny suite has %d datasets, golden table %d", len(ds), len(want))
	}
	r := NewRunner()
	for _, d := range ds {
		g, err := d.Build()
		if err != nil {
			t.Fatal(err)
		}
		ord := order.Compute(g)
		for i, res := range []BuildResult{r.RunDRL(g, ord), r.RunDRLb(g, ord)} {
			if res.Err != nil {
				t.Fatalf("%s %s: %v", d.Name, res.Algo, res.Err)
			}
			got := volume{res.Supersteps, res.Messages, res.BytesRemote}
			if got != want[d.Name][i] {
				t.Errorf("%s %s: {supersteps messages bytes_remote} = %v, want %v",
					d.Name, res.Algo, got, want[d.Name][i])
			}
		}
	}
}

func TestFig5(t *testing.T) {
	r := tinyRunner()
	rows, err := r.Fig5(tinySuite(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.DRLb.INF() {
			t.Errorf("%s: DRL_b should finish at tiny scale", row.Dataset)
		}
		if !row.DRL.INF() && row.DRL.TotalComm() <= 0 {
			t.Errorf("%s: DRL should report communication time", row.Dataset)
		}
	}
	var buf bytes.Buffer
	PrintFig5(&buf, rows)
	if !strings.Contains(buf.String(), "DRLb") {
		t.Error("fig5 output incomplete")
	}
}

func TestFig6SpeedupShape(t *testing.T) {
	r := tinyRunner()
	rows, err := r.Fig6(tinySuite(t)[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	var drlb *Fig6Row
	for i := range rows {
		if rows[i].Algo == "DRLb" {
			drlb = &rows[i]
		}
	}
	if drlb == nil {
		t.Fatal("no DRLb row")
	}
	if s := drlb.Speedup(0); s != 1 {
		t.Errorf("speedup at p=1 should be 1, got %f", s)
	}
	var buf bytes.Buffer
	PrintFig6(&buf, rows)
	if !strings.Contains(buf.String(), "p=32") {
		t.Error("fig6 output incomplete")
	}
}

func TestFig7(t *testing.T) {
	r := tinyRunner()
	rows, err := r.Fig7(tinySuite(t)[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if len(row.Times) != len(Fig7Fractions) {
			t.Fatalf("row %s/%s incomplete", row.Dataset, row.Algo)
		}
	}
	var buf bytes.Buffer
	PrintFig7(&buf, rows)
	if !strings.Contains(buf.String(), "100%") {
		t.Error("fig7 output incomplete")
	}
}

func TestFig8AndFig9(t *testing.T) {
	r := tinyRunner()
	ds := tinySuite(t)[:1]
	rows8, err := r.Fig8(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows8) != 1 || len(rows8[0].Times) != len(Fig8Sizes) {
		t.Fatalf("fig8 incomplete: %+v", rows8)
	}
	rows9, err := r.Fig9(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows9) != 1 || len(rows9[0].Times) != len(Fig9Factors) {
		t.Fatalf("fig9 incomplete: %+v", rows9)
	}
	// The paper's Exp 8 finding: k = 1 is dramatically slower than
	// k = 2 (every batch pays a full engine run).
	k1 := rows9[0].Times[0]
	k2 := rows9[0].Times[2]
	if !k1.INF() && !k2.INF() && k1.Total < k2.Total {
		t.Errorf("k=1 (%v) should be slower than k=2 (%v)", k1.Total, k2.Total)
	}
	var buf bytes.Buffer
	PrintFig8(&buf, rows8)
	PrintFig9(&buf, rows9)
	if !strings.Contains(buf.String(), "b=128") || !strings.Contains(buf.String(), "k=4.0") {
		t.Error("fig8/fig9 output incomplete")
	}
}

func TestAblations(t *testing.T) {
	r := tinyRunner()
	ds := tinySuite(t)[:1]
	orows, err := r.AblationOrder(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(orows) != 5 {
		t.Fatalf("expected 5 strategies, got %d", len(orows))
	}
	var degEntries, randEntries int64
	for _, row := range orows {
		if row.Result.Index == nil {
			t.Fatalf("%s/%s failed", row.Dataset, row.Strategy)
		}
		switch row.Strategy {
		case "degree-product":
			degEntries = row.Result.Index.Entries()
		case "random":
			randEntries = row.Result.Index.Entries()
		}
	}
	if degEntries > randEntries {
		t.Errorf("degree-product (%d) should beat random order (%d)", degEntries, randEntries)
	}
	var buf bytes.Buffer
	PrintAblationOrder(&buf, orows)
	if !strings.Contains(buf.String(), "degree-product") {
		t.Error("ablation-order output incomplete")
	}

	crows, err := r.AblationCondense(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(crows) != 1 || crows[0].CondVertices >= crows[0].RawVertices {
		t.Fatalf("condensation should shrink the web graph: %+v", crows)
	}
	if raw, cond := crows[0].Raw.Index, crows[0].Condensed.Index; raw == nil || cond == nil || cond.Entries() >= raw.Entries() {
		t.Fatalf("labeling the condensation should take fewer entries than the raw graph: %+v", crows[0])
	}
	buf.Reset()
	PrintAblationCondense(&buf, crows)
	if !strings.Contains(buf.String(), "Index size") {
		t.Error("ablation-condense output incomplete")
	}
}

// TestBuildCutoff: a build the cut-off stops is INF, and one that
// fails any other way is not. The stopped build waits for its context,
// so the cut-off always comes first, however slow the host.
func TestBuildCutoff(t *testing.T) {
	r := tinyRunner()
	r.Cutoff = time.Nanosecond
	stopped := r.build("stopped", func(ctx context.Context) (*label.Index, pregel.Metrics, error) {
		<-ctx.Done()
		return nil, pregel.Metrics{}, ctx.Err()
	})
	if !stopped.TimedOut || !stopped.INF() || !errors.Is(stopped.Err, context.Canceled) {
		t.Errorf("a build stopped at the cut-off: TimedOut %v, INF %v, err %v; want INF", stopped.TimedOut, stopped.INF(), stopped.Err)
	}
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	failed := r.RunDRLbParams(g, order.Compute(g), drl.BatchParams{Factor: 0.1}, 2)
	if failed.TimedOut || failed.INF() || failed.Err == nil {
		t.Errorf("a build refused its batch parameters: TimedOut %v, INF %v, err %v; want an error, not INF", failed.TimedOut, failed.INF(), failed.Err)
	}
}

func TestBuildResultHelpers(t *testing.T) {
	r := BuildResult{TimedOut: true}
	if !r.INF() {
		t.Error("INF should reflect TimedOut")
	}
	if fmtBuild(time.Second, true) != "INF" {
		t.Error("fmtBuild INF")
	}
	if fmtBuild(1500*time.Millisecond, false) != "1.5s" {
		t.Errorf("fmtBuild = %s", fmtBuild(1500*time.Millisecond, false))
	}
}

// Package bench is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (§VI) against the synthetic
// dataset suite, with cmd/drbench as the CLI front end. It also holds
// the load driver (loadgen.go) behind cmd/drload and the serving soaks.
package bench

import (
	"fmt"
	"sort"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Dataset is one entry of the Table V inventory: a paper dataset name
// bound to the synthetic generator parameters that stand in for it.
// Scale factors are reduced uniformly (the originals reach 3.7B
// edges); the Medium flag marks the six graphs used by Exps 4-8.
type Dataset struct {
	// Name is the paper's dataset code (WEBW, DBPE, …).
	Name string
	// Paper documents the original graph this one stands in for.
	Paper string
	// Params drive the generator.
	Params gen.Params
	// Medium marks the six medium-sized graphs of Fig. 5-9.
	Medium bool
}

// Build generates the dataset's graph.
func (d Dataset) Build() (*graph.Digraph, error) {
	return gen.Generate(d.Params)
}

// genEdgesParams exposes the raw edge stream of a dataset (Fig. 7
// takes prefixes of it).
func genEdgesParams(d Dataset) ([]graph.Edge, error) {
	return gen.Edges(d.Params)
}

// scale multiplies all dataset sizes; the suites below are defined at
// scale 1. The harness exposes it so CI can run tiny versions.
func registry(scale float64) []Dataset {
	sz := func(n int) int {
		v := int(float64(n) * scale)
		if v < 16 {
			v = 16
		}
		return v
	}
	return []Dataset{
		// The six medium graphs (Exp 4-8 set).
		{Name: "WEBW", Paper: "Web-wikipedia (1.9M/4.5M)", Medium: true,
			Params: gen.Params{Family: gen.Web, N: sz(20000), AvgDegree: 2.4, Seed: 101}},
		{Name: "DBPE", Paper: "Dbpedia (3.4M/8.0M)", Medium: true,
			Params: gen.Params{Family: gen.Knowledge, N: sz(24000), AvgDegree: 2.4, Seed: 102}},
		{Name: "CITE", Paper: "Citeseerx (6.5M/15.0M)", Medium: true,
			Params: gen.Params{Family: gen.Citation, N: sz(30000), AvgDegree: 2.3, Seed: 103}},
		{Name: "CITP", Paper: "Cit-patent (3.8M/16.5M)", Medium: true,
			Params: gen.Params{Family: gen.Citation, N: sz(22000), AvgDegree: 4.4, Seed: 104}},
		{Name: "TW", Paper: "Twitter (18.1M/18.4M)", Medium: true,
			Params: gen.Params{Family: gen.Social, N: sz(36000), AvgDegree: 1.0, Seed: 105}},
		{Name: "GO", Paper: "Go-uniprot (7.0M/34.8M)", Medium: true,
			Params: gen.Params{Family: gen.Biology, N: sz(26000), AvgDegree: 5.0, Seed: 106}},

		// The large graphs (Table VI only; stand-ins for the
		// billion-edge set).
		{Name: "SINA", Paper: "Soc-sinaweibo (58.7M/261.3M)",
			Params: gen.Params{Family: gen.Social, N: sz(60000), AvgDegree: 4.5, Seed: 107}},
		{Name: "LINK", Paper: "Wikipedia-link (13.6M/437.2M)",
			Params: gen.Params{Family: gen.Web, N: sz(40000), AvgDegree: 16, Seed: 108}},
		{Name: "WEBB", Paper: "Webbase-2001 (118.1M/1.02B)",
			Params: gen.Params{Family: gen.Web, N: sz(90000), AvgDegree: 8.6, Seed: 109}},
		{Name: "GRPH", Paper: "Graph500 (17.0M/1.05B)",
			Params: gen.Params{Family: gen.Synthetic, N: sz(36000), AvgDegree: 30, Seed: 110}},
		{Name: "TWIT", Paper: "Twitter-2010 (41.7M/1.47B)",
			Params: gen.Params{Family: gen.Social, N: sz(60000), AvgDegree: 17, Seed: 111}},
		{Name: "HOST", Paper: "Host-linkage (57.4M/1.64B)",
			Params: gen.Params{Family: gen.Web, N: sz(66000), AvgDegree: 14, Seed: 112}},
		{Name: "GSH", Paper: "Gsh-2015-host (68.7M/1.80B)",
			Params: gen.Params{Family: gen.Web, N: sz(70000), AvgDegree: 13, Seed: 113}},
		{Name: "SK", Paper: "Sk-2005 (50.6M/1.95B)",
			Params: gen.Params{Family: gen.Web, N: sz(60000), AvgDegree: 19, Seed: 114}},
		{Name: "TWIM", Paper: "Twitter-mpi (52.6M/1.96B)",
			Params: gen.Params{Family: gen.Social, N: sz(62000), AvgDegree: 18, Seed: 115}},
		{Name: "FRIE", Paper: "Friendster (68.3M/2.59B)",
			Params: gen.Params{Family: gen.Social, N: sz(72000), AvgDegree: 18, Seed: 116}},
		{Name: "UK", Paper: "Uk-2006-05 (77.7M/2.97B)",
			Params: gen.Params{Family: gen.Web, N: sz(78000), AvgDegree: 19, Seed: 117}},
		{Name: "WEBS", Paper: "Webspam-uk (105.9M/3.74B)",
			Params: gen.Params{Family: gen.Web, N: sz(96000), AvgDegree: 17, Seed: 118}},
	}
}

// Suite returns the named dataset suite:
//
//	tiny    the six medium graphs at 1/20 scale (CI, unit benches)
//	medium  the six medium graphs (Exps 4-8)
//	large   the twelve large graphs
//	all     the full Table V inventory
func Suite(name string) ([]Dataset, error) {
	switch name {
	case "tiny":
		var out []Dataset
		for _, d := range registry(0.05) {
			if d.Medium {
				out = append(out, d)
			}
		}
		return out, nil
	case "medium":
		var out []Dataset
		for _, d := range registry(1) {
			if d.Medium {
				out = append(out, d)
			}
		}
		return out, nil
	case "large":
		var out []Dataset
		for _, d := range registry(1) {
			if !d.Medium {
				out = append(out, d)
			}
		}
		return out, nil
	case "all":
		return registry(1), nil
	default:
		return nil, fmt.Errorf("bench: unknown suite %q (want tiny, medium, large, or all)", name)
	}
}

// Lookup returns the dataset with the given name at scale 1.
func Lookup(name string) (Dataset, error) {
	for _, d := range registry(1) {
		if d.Name == name {
			return d, nil
		}
	}
	var names []string
	for _, d := range registry(1) {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return Dataset{}, fmt.Errorf("bench: unknown dataset %q (have %v)", name, names)
}

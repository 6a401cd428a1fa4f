// Command sitediag breaks a run's mispredictions down by site population
// and predictor — the tool used to attribute accuracy differences between
// predictor designs to the workload structures that cause them.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/predictor"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	run := flag.String("run", "photon", "benchmark run name")
	events := flag.Int("events", 60000, "dispatch events")
	flag.Parse()

	cfg, ok := bench.ByName(*run)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown run %q\n", *run)
		os.Exit(1)
	}
	cfg.Events = *events
	var recs []trace.Record
	prof := analysis.NewProfiler()
	sum := cfg.Generate(func(r trace.Record) {
		recs = append(recs, r)
		prof.Observe(r)
	})

	names := bench.PredictorNames()
	perLabel := map[string]map[string]*stats.Counters{}
	preds := make([]predictor.IndirectPredictor, 0, len(names))
	for _, n := range names {
		p, _ := bench.NewPredictor(n)
		preds = append(preds, p)
	}
	for _, r := range recs {
		if r.MTIndirect() {
			label := sum.SiteByPC[r.PC]
			for i, p := range preds {
				t, ok := p.Predict(r.PC)
				m := perLabel[label]
				if m == nil {
					m = map[string]*stats.Counters{}
					perLabel[label] = m
				}
				c := m[names[i]]
				if c == nil {
					c = &stats.Counters{Predictor: names[i]}
					m[names[i]] = c
				}
				c.Resolve(t, ok, r.Target)
				p.Update(r.PC, r.Target)
			}
		}
		for _, p := range preds {
			p.Observe(r)
		}
	}
	var labels []string
	for l := range perLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	fmt.Printf("%-18s %10s", "population", "execs")
	for _, n := range names {
		if len(n) > 8 {
			n = n[:8]
		}
		fmt.Printf(" %8s", n)
	}
	fmt.Println()
	for _, l := range labels {
		m := perLabel[l]
		fmt.Printf("%-18s %10d", l, m[names[0]].Lookups)
		for _, n := range names {
			fmt.Printf(" %8.2f", 100*m[n].MispredictionRatio())
		}
		fmt.Println()
	}

	// Per-population structure, in the paper's classification terms.
	type agg struct {
		execs                  uint64
		mono, lowent, poly     int
		entropyW, transitionsW float64
	}
	byLabel := map[string]*agg{}
	for _, b := range prof.Profiles() {
		label := sum.SiteByPC[b.PC]
		a := byLabel[label]
		if a == nil {
			a = &agg{}
			byLabel[label] = a
		}
		a.execs += b.Executions
		a.entropyW += b.Entropy * float64(b.Executions)
		a.transitionsW += b.TransitionRate * float64(b.Executions)
		switch {
		case b.Monomorphic():
			a.mono++
		case b.LowEntropy():
			a.lowent++
		default:
			a.poly++
		}
	}
	fmt.Printf("\n%-18s %8s %6s %6s %6s %10s %10s\n",
		"population", "execs", "mono", "lowE", "poly", "entropy", "transition")
	for _, l := range labels {
		a := byLabel[l]
		if a == nil || a.execs == 0 {
			continue
		}
		fmt.Printf("%-18s %8d %6d %6d %6d %10.2f %9.1f%%\n",
			l, a.execs, a.mono, a.lowent, a.poly,
			a.entropyW/float64(a.execs), 100*a.transitionsW/float64(a.execs))
	}
}

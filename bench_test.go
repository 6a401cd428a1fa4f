package repro_test

import (
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/condbr"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// benchEvents keeps -bench runtimes reasonable while exercising the full
// suite; cmd/experiments regenerates the figures at full scale.
const benchEvents = 20_000

var (
	suiteOnce   sync.Once
	suiteTraces map[string][]trace.Block
)

// suite materializes the benchmark traces through the shared trace cache
// (bench.Traces), so they are synthesized once per process and shared with
// any other harness in the same binary.
func suite() map[string][]trace.Block {
	suiteOnce.Do(func() {
		suiteTraces = make(map[string][]trace.Block)
		for _, cfg := range bench.Sized(benchEvents) {
			blks, _ := bench.Traces(cfg)
			suiteTraces[cfg.String()] = blks
		}
	})
	return suiteTraces
}

// runBlocks replays blks through a fresh engine over preds and returns the
// counters.
func runBlocks(blks []trace.Block, preds ...predictor.IndirectPredictor) []stats.Counters {
	e := sim.New(preds...)
	e.ProcessBlocks(blks)
	return e.Counters()
}

// runSuite drives the whole benchmark suite through fresh instances of the
// given predictor construction and reports the mean misprediction ratio as
// a benchmark metric.
func runSuite(b *testing.B, build func() predictor.IndirectPredictor) {
	b.Helper()
	traces := suite()
	var lastMean float64
	var branches int64
	for i := 0; i < b.N; i++ {
		var sum float64
		var n int
		branches = 0
		for _, blks := range traces {
			p := build()
			counters := runBlocks(blks, p)
			sum += counters[0].MispredictionRatio()
			branches += int64(counters[0].Lookups)
			n++
		}
		lastMean = sum / float64(n)
	}
	b.ReportMetric(100*lastMean, "mispred%")
	b.ReportMetric(float64(branches), "MT-branches")
}

// BenchmarkTable1 regenerates the dynamic benchmark characteristics of
// Table 1 (trace generation throughput; the characteristics are checked in
// internal/bench tests and printed by cmd/experiments -table1).
func BenchmarkTable1(b *testing.B) {
	cfgs := bench.Sized(benchEvents)
	var instr uint64
	for i := 0; i < b.N; i++ {
		instr = 0
		for _, cfg := range cfgs {
			sum := cfg.Generate(func(trace.Record) {})
			instr += sum.Instructions
		}
	}
	b.ReportMetric(float64(instr)/1e6, "Minstr")
}

// BenchmarkFigure1 replays the Section 3 worked example (conditional PPM).
func BenchmarkFigure1(b *testing.B) {
	seq := "01010110101"
	for i := 0; i < b.N; i++ {
		p := condbr.NewPPM(3)
		for _, ch := range seq {
			p.Predict()
			p.Update(ch == '1')
		}
		if p.Predict() {
			b.Fatal("Figure 1 example must predict 0")
		}
	}
}

// BenchmarkFigure6 regenerates the seven-predictor comparison of Figure 6,
// one sub-benchmark per predictor; the reported mispred% metric is the
// cross-suite mean the paper plots.
func BenchmarkFigure6(b *testing.B) {
	for _, name := range []string{"BTB", "BTB2b", "GAp", "TC-PIB", "Dpath", "Cascade", "PPM-hyb"} {
		name := name
		b.Run(name, func(b *testing.B) {
			runSuite(b, func() predictor.IndirectPredictor {
				p, _ := bench.NewPredictor(name)
				return p
			})
		})
	}
}

// BenchmarkFigure7 regenerates the PPM-variant comparison of Figure 7.
func BenchmarkFigure7(b *testing.B) {
	for _, name := range []string{"PPM-hyb", "PPM-PIB", "PPM-hyb-biased"} {
		name := name
		b.Run(name, func(b *testing.B) {
			runSuite(b, func() predictor.IndirectPredictor {
				p, _ := bench.NewPredictor(name)
				return p
			})
		})
	}
}

// BenchmarkComponentsAnalysis reproduces the Section 5 measurement that at
// least 98% of PPM accesses land in the highest-order Markov component.
func BenchmarkComponentsAnalysis(b *testing.B) {
	traces := suite()
	var share float64
	for i := 0; i < b.N; i++ {
		var top, total uint64
		for _, blks := range traces {
			p := core.PaperHyb()
			runBlocks(blks, p)
			st := p.Stats()
			for _, a := range st.Accesses {
				total += a
			}
			top += st.Accesses[p.Order()]
		}
		share = 100 * float64(top) / float64(total)
	}
	b.ReportMetric(share, "top-order-%")
}

// BenchmarkOracleAnalysis reproduces the Section 5 oracle study (complete
// PIB path history, length 8) on photon.
func BenchmarkOracleAnalysis(b *testing.B) {
	blks := suite()["photon"]
	var acc float64
	for i := 0; i < b.N; i++ {
		o := oracle.New(8)
		counters := runBlocks(blks, o)
		acc = 100 * counters[0].Accuracy()
	}
	b.ReportMetric(acc, "oracle-acc%")
}

// BenchmarkVariantsAblation covers the Section 6 future-work designs.
func BenchmarkVariantsAblation(b *testing.B) {
	builders := map[string]func() predictor.IndirectPredictor{
		"tagged": func() predictor.IndirectPredictor {
			cfg := core.DefaultConfig(core.Hybrid)
			cfg.Tagged = true
			return core.New(cfg)
		},
		"confidence": func() predictor.IndirectPredictor {
			cfg := core.DefaultConfig(core.Hybrid)
			cfg.ConfidenceThreshold = 2
			return core.New(cfg)
		},
		"low-select": func() predictor.IndirectPredictor {
			cfg := core.DefaultConfig(core.Hybrid)
			cfg.LowSelect = true
			return core.New(cfg)
		},
		"filtered": func() predictor.IndirectPredictor { return core.PaperFiltered() },
	}
	for name, build := range builders {
		name, build := name, build
		b.Run(name, func(b *testing.B) { runSuite(b, build) })
	}
}

// BenchmarkPredictorThroughput measures raw single-branch prediction+update
// latency per predictor on a fixed hot loop — the engineering metric for
// the simulator itself.
func BenchmarkPredictorThroughput(b *testing.B) {
	targets := []uint64{0x140000f4, 0x14000128, 0x1400075c, 0x14000390}
	for _, name := range bench.PredictorNames() {
		name := name
		b.Run(name, func(b *testing.B) {
			p, _ := bench.NewPredictor(name)
			rec := trace.Record{PC: 0x120004c0, Class: trace.IndirectJmp, Taken: true, MT: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tgt := targets[i&3]
				p.Predict(rec.PC)
				p.Update(rec.PC, tgt)
				rec.Target = tgt
				p.Observe(rec)
			}
		})
	}
}

// BenchmarkWorkloadGeneration measures the synthetic trace generator.
func BenchmarkWorkloadGeneration(b *testing.B) {
	cfg, _ := bench.ByName("gcc.cp")
	cfg.Events = 10_000
	var recs uint64
	for i := 0; i < b.N; i++ {
		sum := cfg.Generate(func(trace.Record) {})
		recs = sum.Records
	}
	b.ReportMetric(float64(recs), "records")
}

// BenchmarkEngine measures full-engine block processing with the complete
// Figure 6 predictor set attached.
func BenchmarkEngine(b *testing.B) {
	blks := suite()["gs.tig"]
	b.ResetTimer()
	var records uint64
	for i := 0; i < b.N; i++ {
		e := sim.New(bench.Figure6Predictors()...)
		e.ProcessBlocks(blks)
		records = e.Records()
	}
	b.ReportMetric(float64(records), "records")
}

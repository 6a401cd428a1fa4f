package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/condbr"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/predictor"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// The grid workload rebuilds `experiments -all` — Table 1, Figure 1,
// Figures 6 and 7, the Section 5 component and oracle analyses — from the
// public packages: tracecache.New, then sched.Pool.Map / SimulateBlocks,
// then report.Table. The renderers below mirror cmd/experiments' printers
// line for line, so at the default seed the output is byte-identical to the
// checked-in experiments_output.txt.

// gridResult is everything the six paper experiments render.
type gridResult struct {
	sums       []workload.Summary
	fig6, fig7 []sched.Result
	comp, orc  []sched.Result
}

// simCells returns the number of sched cells one grid dispatches and the
// trace records those cells simulate.
func (r gridResult) simCells() (cells int, records uint64) {
	cells = len(r.sums)
	for _, set := range [][]sched.Result{r.fig6, r.fig7, r.comp, r.orc} {
		cells += len(set)
		for _, res := range set {
			records += res.Summary.Records
		}
	}
	return cells, records
}

type gridRunner struct {
	suite []workload.Config
	pool  *sched.Pool
	tr    *tracer
}

// compute runs the grid's simulation cells. blocks selects the batched
// block engine (what experiments runs); false replays records through the
// record engine, the independent path the set-up reference uses.
func (g *gridRunner) compute(cache *tracecache.Cache, blocks bool, parent int) gridResult {
	var r gridResult
	r.sums = make([]workload.Summary, len(g.suite))
	sp := g.tr.begin("sched.Map", parent)
	g.pool.Map(len(g.suite), func(i int) {
		c := g.tr.begin("tracecache.Get", sp)
		_, r.sums[i] = cache.Get(g.suite[i])
		g.tr.end(c)
	})
	g.tr.end(sp)
	simulate := func(build func() []predictor.IndirectPredictor) []sched.Result {
		if blocks {
			sp := g.tr.begin("sched.SimulateBlocks", parent)
			defer g.tr.end(sp)
			return g.pool.SimulateBlocks(cache, g.suite, build)
		}
		sp := g.tr.begin("sched.Simulate", parent)
		defer g.tr.end(sp)
		return g.pool.Simulate(cache, g.suite, build)
	}
	r.fig6 = simulate(bench.Figure6Predictors)
	r.fig7 = simulate(bench.Figure7Predictors)
	r.comp = simulate(func() []predictor.IndirectPredictor {
		return []predictor.IndirectPredictor{core.PaperHyb()}
	})
	r.orc = simulate(func() []predictor.IndirectPredictor {
		return []predictor.IndirectPredictor{oracle.New(8)}
	})
	return r
}

// render produces the grid's text exactly as `experiments -all` prints it.
func (g *gridRunner) render(r gridResult, parent int) []byte {
	sp := g.tr.begin("report.Render", parent)
	defer g.tr.end(sp)
	var out bytes.Buffer
	renderTable1(&out, r.sums)
	renderFigure1(&out)
	renderMatrix(&out, "Figure 6: misprediction ratios (%), 2K-entry predictors", r.fig6)
	renderMatrix(&out, "Figure 7: misprediction ratios (%), PPM variants", r.fig7)
	renderComponents(&out, r.comp)
	renderOracle(&out, r.orc)
	return out.Bytes()
}

func renderTable1(w io.Writer, sums []workload.Summary) {
	t := report.NewTable("Table 1: dynamic benchmark characteristics",
		"benchmark", "input", "instr (M)", "MT jsr+jmp", "static MT", "cond", "returns")
	for _, sum := range sums {
		t.AddRowf(sum.Name, sum.Input,
			fmt.Sprintf("%.1f", float64(sum.Instructions)/1e6),
			sum.MTDynamic, sum.MTStatic, sum.CondDynamic, sum.RetsDynamic)
	}
	t.Render(w)
	fmt.Fprintln(w)
}

func renderFigure1(w io.Writer) {
	fmt.Fprintln(w, "Figure 1: 3rd-order Markov predictor over input 01010110101")
	p := condbr.NewPPM(3)
	for _, ch := range "01010110101" {
		p.Predict()
		p.Update(ch == '1')
	}
	z, o := p.Model(3).Counts(0b101)
	fmt.Fprintf(w, "  state 101: next-bit counts 0:%d 1:%d\n", z, o)
	bit := "0"
	if p.Predict() {
		bit = "1"
	}
	fmt.Fprintf(w, "  PPM prediction after sequence: %s (paper: 0)\n\n", bit)
}

func renderMatrix(w io.Writer, title string, results []sched.Result) {
	var names []string
	if len(results) > 0 {
		for _, c := range results[0].Counters {
			names = append(names, c.Predictor)
		}
	}
	t := report.NewTable(title, append([]string{"run"}, names...)...)
	perPred := make(map[string][]stats.Counters)
	for _, res := range results {
		row := []string{res.Config.String()}
		for _, c := range res.Counters {
			row = append(row, report.Pct(c.MispredictionRatio()))
			perPred[c.Predictor] = append(perPred[c.Predictor], c)
		}
		t.AddRow(row...)
	}
	avg := []string{"MEAN"}
	for _, n := range names {
		avg = append(avg, report.Pct(stats.MeanRatio(perPred[n])))
	}
	t.AddRow(avg...)
	t.Render(w)
	fmt.Fprintln(w)
}

func renderComponents(w io.Writer, results []sched.Result) {
	fmt.Fprintln(w, "Markov component access distribution (PPM-hyb)")
	for _, res := range results {
		p := res.Preds[0].(*core.PPM)
		st := p.Stats()
		var total, totalMiss uint64
		for i, a := range st.Accesses {
			total += a
			totalMiss += st.Misses[i]
		}
		if total == 0 {
			continue
		}
		topAcc, topMiss := st.Accesses[p.Order()], st.Misses[p.Order()]
		missShare := 0.0
		if totalMiss > 0 {
			missShare = 100 * float64(topMiss) / float64(totalMiss)
		}
		fmt.Fprintf(w, "  %-12s highest-order accesses: %5.1f%%  misses: %5.1f%%\n",
			res.Config.String(), 100*float64(topAcc)/float64(total), missShare)
	}
	fmt.Fprintln(w)
}

func renderOracle(w io.Writer, results []sched.Result) {
	fmt.Fprintln(w, "Oracle with complete PIB path history, path length 8")
	for _, res := range results {
		o := res.Preds[0].(*oracle.Oracle)
		fmt.Fprintf(w, "  %-12s accuracy: %.2f%% (contexts: %d)\n",
			res.Config.String(), 100*res.Counters[0].Accuracy(), o.Contexts())
	}
	fmt.Fprintln(w)
}

// gridBench is the set-up state of the grid workload.
type gridBench struct {
	runner gridRunner
	want   []byte        // the reference rendering every timed grid must equal
	instr  *instrCounter // this process: the grid runs in-process
}

// cacheBudget is experiments' default -cachemb 512.
const cacheBudget = 512 << 20

// setupGrid folds the seed into the suite and renders the reference grid
// through the record engine. At the default seed the reference must also
// equal the checked-in experiments_output.txt.
func setupGrid(env *runEnv) (*gridBench, error) {
	suite := foldSuite(bench.Suite(), env.seed)
	g := &gridBench{runner: gridRunner{suite: suite, pool: sched.New(env.nproc), tr: env.tr}}
	ref := g.runner
	ref.tr = nil
	g.want = ref.render(ref.compute(tracecache.New(cacheBudget), false, 0), 0)
	if env.seed == defaultSeed {
		golden, err := os.ReadFile(filepath.Join(env.root, "experiments_output.txt"))
		if err != nil {
			return nil, fmt.Errorf("read golden grid: %w", err)
		}
		if !bytes.Equal(golden, g.want) {
			return nil, fmt.Errorf("record-engine grid differs from experiments_output.txt")
		}
	}
	var err error
	g.instr, err = openInstr(os.Getpid())
	return g, err
}

// gridStats accumulates the timed grids of one measuring phase.
type gridStats struct {
	cold, warm           samples
	coldInstr, warmInstr []float64 // millions of instructions per grid
	allocMB              []float64
	records              uint64
	ops, bad             int
	err                  error // a failed counter read
}

// one runs one cold grid (fresh cache, as every `experiments -all` process
// pays) and then the same grid again on the now-warm cache, checking both
// renderings against the reference.
func (g *gridBench) one(st *gridStats, root int) {
	tr := g.runner.tr
	// Start each repetition from a collected heap so the previous grid's
	// cache is neither charged to this one nor kept resident.
	runtime.GC()

	c0, err0 := g.instr.read()
	a0 := heapAllocMB()
	t0 := now()
	sp := tr.begin("tracecache.New", root)
	cache := tracecache.New(cacheBudget)
	tr.end(sp)
	res := g.runner.compute(cache, true, root)
	out := g.runner.render(res, root)
	t1 := now()
	c1, err1 := g.instr.read()
	st.allocMB = append(st.allocMB, heapAllocMB()-a0)
	st.cold.add(t1 - t0)

	w0 := now()
	wres := g.runner.compute(cache, true, root)
	wout := g.runner.render(wres, root)
	st.warm.add(now() - w0)
	c2, err2 := g.instr.read()
	if err := errors.Join(err0, err1, err2); err != nil {
		st.err = err
	} else {
		st.coldInstr = append(st.coldInstr, float64(c1-c0)/1e6)
		st.warmInstr = append(st.warmInstr, float64(c2-c1)/1e6)
	}
	_, recs := res.simCells()

	cs := tr.begin("bench.check", root)
	st.ops += 2
	for _, got := range [][]byte{out, wout} {
		if !bytes.Equal(got, g.want) {
			st.bad++
		}
	}
	tr.end(cs)
	st.records += 2 * recs
}

// measure runs grids back to back until d has elapsed.
func (g *gridBench) measure(ctx context.Context, d time.Duration) *gridStats {
	st := &gridStats{}
	deadline := now() + d
	for (now() < deadline || st.ops == 0) && ctx.Err() == nil {
		root := g.runner.tr.begin("grid", 0)
		g.one(st, root)
		g.runner.tr.end(root)
	}
	return st
}

func (st *gridStats) metrics(wall time.Duration) (e2e, clock *metrics) {
	e2e = newMetrics()
	e2e.setInstr("main_minstr", st.coldInstr, "per cold grid")
	e2e.setInstr("aux_minstr", st.warmInstr, "per warm grid")
	e2e.set("alloc_mb_per_op", median(st.allocMB), "MB")
	e2e.note("alloc_mb_per_op", "per cold grid")
	return e2e, wallMetrics(st.cold.snapshot(), st.warm.snapshot(), "cold grids", "warm grids",
		float64(st.records)/wall.Seconds(), "simulated records/s")
}

func (g *gridBench) phase(ctx context.Context, d time.Duration) phaseOut {
	start := now()
	st := g.measure(ctx, d)
	e2e, clock := st.metrics(now() - start)
	out := phaseOut{m: e2e, wall: clock, ops: st.ops, bad: st.bad, err: st.err}
	if st.bad > 0 {
		out.err = fmt.Errorf("%d grid renderings differ from the reference", st.bad)
	}
	return out
}

// rssMB is this process's peak resident set: the grid runs in-process.
func (g *gridBench) rssMB() (float64, error) { return vmHWM(os.Getpid()) }

func (g *gridBench) digest() string {
	sum := sha256.Sum256(g.want)
	return "grid=" + hex.EncodeToString(sum[:])
}

func (g *gridBench) close() error {
	g.instr.close()
	return nil
}

// Package sched shards the experiment grid across CPU cores without
// changing a single output byte. The paper's evaluation is embarrassingly
// parallel — (run × predictor-set) simulation cells share nothing but the
// immutable cached traces — so a fixed worker pool (Map) executes cells in
// any order and each cell writes its result into its own slot of a slice
// in canonical suite order.
//
// Determinism contract: every cell builds its own predictors and its own
// sim.Engine, reads only immutable inputs (the workload.Config and the
// shared trace blocks from internal/tracecache), and writes only its own
// Result. A pool of one worker degenerates to a plain in-order loop on the
// calling goroutine — the exact serial path — which the harness's
// determinism test compares against high worker counts byte for byte.
package sched

import (
	"runtime"
	"sync"

	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// Result is the outcome of one simulation cell: one suite run driven
// through one fresh predictor set.
type Result struct {
	Config   workload.Config
	Summary  workload.Summary
	Counters []stats.Counters
	// Preds are the cell's predictor instances after simulation, for
	// analyses that read predictor-internal state (component access
	// distributions, oracle context counts).
	Preds []predictor.IndirectPredictor
}

// Pool is a fixed-width worker pool. The zero value is not usable; call
// New.
type Pool struct {
	workers int
}

// New returns a pool of the given width; workers <= 0 selects
// runtime.GOMAXPROCS(0).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool width.
func (p *Pool) Workers() int { return p.workers }

// Map runs fn(i) for every i in [0, n), sharding across the pool. With one
// worker it is a plain loop on the calling goroutine; otherwise fn must be
// safe for concurrent invocation with distinct i. Map returns when every
// call has completed.
func (p *Pool) Map(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p.workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// SimulateBlocks drives every suite config through a fresh predictor set
// built by build, one cell per config, and returns results in suite order.
// Each cell reads the config's blocks through the cache — so each config
// is generated at most once per process no matter how many calls share
// the cache — and replays them via sim.Engine.ProcessBlocks.
func (p *Pool) SimulateBlocks(cache *tracecache.Cache, suite []workload.Config, build func() []predictor.IndirectPredictor) []Result {
	return p.simulate(cache, suite, build, (*sim.Engine).ProcessBlocks)
}

// Simulate is the record-protocol reference for SimulateBlocks: it replays
// the same cached blocks one record at a time through sim.Engine.Process
// (each block flattened into a reused record buffer), skipping every
// predictor's ProcessBlock fast path.
// Its results must equal SimulateBlocks' exactly; it is the independent
// side of the blocks-vs-records, trace-cache and worker-count identities,
// not a production path.
func (p *Pool) Simulate(cache *tracecache.Cache, suite []workload.Config, build func() []predictor.IndirectPredictor) []Result {
	return p.simulate(cache, suite, build, func(e *sim.Engine, blks []trace.Block) {
		var recs []trace.Record
		for i := range blks {
			recs = blks[i].AppendRecords(recs[:0])
			e.ProcessAll(recs)
		}
	})
}

// simulate runs one cell per suite config across the pool, replaying the
// config's cached blocks through a fresh engine with replay, and returns
// the results in suite order.
func (p *Pool) simulate(cache *tracecache.Cache, suite []workload.Config, build func() []predictor.IndirectPredictor,
	replay func(*sim.Engine, []trace.Block)) []Result {
	results := make([]Result, len(suite))
	p.Map(len(suite), func(i int) {
		blks, sum := cache.Get(suite[i])
		preds := build()
		e := sim.New(preds...)
		replay(e, blks)
		results[i] = Result{Config: suite[i], Summary: sum, Counters: e.Counters(), Preds: preds}
	})
	return results
}

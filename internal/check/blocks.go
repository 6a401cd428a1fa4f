package check

import (
	"fmt"

	"repro/internal/oracle"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// The blocks-vs-records suite holds the batched struct-of-arrays engine to
// the same standard as every other wrapper: the columnar form, the index
// lanes, the per-predictor batch fast paths and the whole-block-per-
// predictor reordering may change wall-clock time only, never a single
// counter. Every comparison below replays identical inputs through
// sim.Engine.ProcessAll and sim.Engine.ProcessBlocks and requires the
// outcomes to agree exactly.

// blockDiffCaps are the block capacities the differential replays exercise:
// the shipped capacity, plus a deliberately tiny odd one so short (and
// shrunken) traces still cross many block boundaries and the cross-block
// state continuity of histories, RAS and selectors is on the hook.
var blockDiffCaps = []int{trace.BlockCap, 7}

// enginesMatch compares every observable of two engines that replayed the
// same trace: accounting, RAS accuracy and per-predictor counters.
func enginesMatch(rec, blk *sim.Engine) error {
	if rec.Records() != blk.Records() {
		return fmt.Errorf("records %d vs %d", rec.Records(), blk.Records())
	}
	if rec.Instructions() != blk.Instructions() {
		return fmt.Errorf("instructions %d vs %d", rec.Instructions(), blk.Instructions())
	}
	rh, rt := rec.RAS().Accuracy()
	bh, bt := blk.RAS().Accuracy()
	if rh != bh || rt != bt {
		return fmt.Errorf("RAS accuracy %d/%d vs %d/%d", rh, rt, bh, bt)
	}
	a, b := rec.Counters(), blk.Counters()
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d counters", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("predictor %s: record %+v vs block %+v", a[i].Predictor, a[i], b[i])
		}
	}
	return nil
}

// BlockEngineIdentity replays recs through a predictor set built by build,
// once record-at-a-time and once through the block engine at every
// blockDiffCaps capacity, and returns the first disagreement.
func BlockEngineIdentity(recs []trace.Record, build func() []predictor.IndirectPredictor) error {
	rec := sim.New(build()...)
	rec.ProcessAll(recs)
	for _, bcap := range blockDiffCaps {
		blk := sim.New(build()...)
		blk.ProcessBlocks(trace.BlocksSized(recs, bcap))
		if err := enginesMatch(rec, blk); err != nil {
			return fmt.Errorf("block engine (cap %d): %w", bcap, err)
		}
	}
	return nil
}

// diffBlocks replays recs through a single predictor family under both
// engines and describes the first disagreement at any block capacity.
func diffBlocks(family string, recs []trace.Record) error {
	return BlockEngineIdentity(recs, func() []predictor.IndirectPredictor {
		p, _ := newStatePredictor(family)
		return []predictor.IndirectPredictor{p}
	})
}

// BlocksVsRecords checks the full matrix contract: sched.SimulateBlocks
// must return byte-identical results to the serial record-engine run at
// every worker width in [1, maxWorkers], through a shared cache, a cold
// cache and the disabled (always-regenerate) cache.
func BlocksVsRecords(suite []workload.Config, build func() []predictor.IndirectPredictor, maxWorkers int) error {
	cache := tracecache.New(0)
	serial := sched.New(1).Simulate(cache, suite, build)
	for w := 1; w <= maxWorkers; w++ {
		blocks := sched.New(w).SimulateBlocks(cache, suite, build)
		if err := resultsEqual(serial, blocks); err != nil {
			return fmt.Errorf("blocks-vs-records: workers %d, shared cache: %w", w, err)
		}
	}
	if err := resultsEqual(serial, sched.New(1).SimulateBlocks(tracecache.New(0), suite, build)); err != nil {
		return fmt.Errorf("blocks-vs-records: cold cache: %w", err)
	}
	if err := resultsEqual(serial, sched.New(1).SimulateBlocks(tracecache.Disabled(), suite, build)); err != nil {
		return fmt.Errorf("blocks-vs-records: disabled cache: %w", err)
	}
	return nil
}

// ExtensionPredictors builds the predictor set of the extension experiments
// that carry their own batch fast paths but sit outside the bench families:
// the snapshot extensions (the value-keyed CBT, the leaky-filtered PPM, the
// multi-target Markov stack and the ppmVariants PPM-hyb configurations),
// plus the unbounded oracle that exercises the engine's record-at-a-time
// fallback inside a block. BlockEngineIdentity
// over this set pins them, mixed in one block, to the record engine at
// every block capacity.
func ExtensionPredictors() []predictor.IndirectPredictor {
	ps := make([]predictor.IndirectPredictor, 0, len(stateExtensions)+1)
	for _, fam := range stateExtensions {
		p, _ := newStatePredictor(fam)
		ps = append(ps, p)
	}
	return append(ps, oracle.New(8))
}
